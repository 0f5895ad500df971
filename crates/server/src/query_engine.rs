//! Epoch-based snapshot reads: queries run lock-free on their caller's
//! thread against the latest published snapshot.
//!
//! Every query on [`crate::SharedDatabase`] holds the global read lock
//! for its whole filter + refine pass, so one writer stalls every reader
//! and readers serialize on lock traffic. This module changes the read
//! concurrency model: an **epoch publisher** maintains an immutable
//! [`Arc<Database>`] snapshot, and queries execute against the latest
//! published snapshot with **zero locks held during filter + refine**.
//! Grabbing a snapshot is one `Arc` clone behind a cell lock held for
//! nanoseconds; after that the query never contends with ingest or with
//! other readers.
//!
//! **Publication is a clone, and a clone is O(1).** The database's
//! object table and index are path-copying ([`Database`]'s docs), so the
//! publisher takes the read lock for as long as it takes to copy a
//! handful of pointers, wraps the clone in an `Arc` and swaps it in.
//! The snapshot shares every record, tree node and bucket with the live
//! database; what a published epoch costs is paid by the writes that
//! follow it, each copying the one path it changes the first time it
//! touches a node the snapshot still holds. A retired snapshot is simply
//! dropped — there is no second copy to keep in step and no change log.
//!
//! **A statement runs on the thread that received it.** The engine owns
//! no query threads: [`QueryEngine::range_query`], [`QueryEngine::run_query`]
//! and [`QueryEngine::run_batch`] grab the snapshot and do the filter +
//! refine on the caller. Concurrency across queries comes from callers —
//! one thread per connection in the wire front-end — all reading the same
//! immutable snapshot; a `;`-separated batch takes **one** snapshot up
//! front and runs its statements in order against it.
//!
//! **Staleness vs the paper's uncertainty bounds.** A snapshot is at most
//! one epoch interval Δt old. The paper's §3.3 deviation bound for a
//! position attribute grows at most linearly in elapsed time with slope
//! `D` (the speed bound used by the policy), so answering from a snapshot
//! taken Δt ago widens the deviation bound by at most `D·Δt` — the same
//! currency the update policies already trade in. With the default 50 ms
//! epoch interval and the paper's example figures (D ≈ 1 mile/minute),
//! that is under a thousandth of a mile of extra imprecision, bought in
//! exchange for reads that scale with cores. Callers that need
//! read-your-writes semantics call [`QueryEngine::publish_now`] first or
//! query the locked [`crate::SharedDatabase`] directly.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use modb_core::{CoreError, Database, ObjectId, PositionAnswer, RangeAnswer};
use modb_geom::Point;
use modb_index::QueryRegion;
use modb_query::{QueryError, QueryResult};
use parking_lot::RwLock;

use crate::shared::SharedDatabase;

/// An immutable point-in-time view of the database, shared by every query
/// running against the same epoch.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    db: Database,
    epoch: u64,
    published_at: Instant,
}

impl EpochSnapshot {
    /// The snapshot's database state. All of [`Database`]'s query API is
    /// available; nothing here takes a lock.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Monotone epoch number; 0 is the snapshot taken at engine start.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Wall-clock age of this snapshot — the staleness bound Δt in the
    /// `D·Δt` imprecision argument.
    pub fn age(&self) -> Duration {
        self.published_at.elapsed()
    }
}

/// The one knob of [`QueryEngine`]: how often the snapshot is republished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEngineConfig {
    /// Republish interval for the epoch snapshot; `None` **or**
    /// `Some(Duration::ZERO)` disables the background publisher
    /// (snapshots advance only via [`QueryEngine::publish_now`], and
    /// [`EpochSnapshot::age`] keeps growing until the next manual
    /// publish).
    pub epoch_interval: Option<Duration>,
}

impl Default for QueryEngineConfig {
    fn default() -> Self {
        QueryEngineConfig {
            epoch_interval: Some(Duration::from_millis(50)),
        }
    }
}

/// Latency histogram buckets: bucket `b` counts queries whose latency in
/// microseconds lies in `[2^(b-1), 2^b)`.
const LATENCY_BUCKETS: usize = 40;

/// Counters published by the query engine, mirroring
/// [`crate::IngestStats`] on the read side. All atomic; shared between
/// the engine, its publisher thread, and any observer.
pub struct QueryStats {
    epoch: AtomicU64,
    queries: AtomicU64,
    epoch_queries: AtomicU64,
    errors: AtomicU64,
    candidates: AtomicU64,
    matches: AtomicU64,
    batches: AtomicU64,
    delta_publishes: AtomicU64,
    full_publishes: AtomicU64,
    publish_ns: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for QueryStats {
    fn default() -> Self {
        QueryStats {
            epoch: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            epoch_queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            matches: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            delta_publishes: AtomicU64::new(0),
            full_publishes: AtomicU64::new(0),
            publish_ns: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl fmt::Debug for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryStats")
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl QueryStats {
    fn record(&self, elapsed: Duration, candidates: usize, matches: usize, error: bool) {
        // Ceilings first, subordinates second, with release/acquire
        // pairing so `snapshot` (which reads in the opposite order) can
        // never observe a subordinate ahead of its ceiling.
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.epoch_queries.fetch_add(1, Ordering::Release);
        if error {
            self.errors.fetch_add(1, Ordering::Release);
        }
        self.candidates
            .fetch_add(candidates as u64, Ordering::Relaxed);
        self.matches.fetch_add(matches as u64, Ordering::Release);
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - (us | 1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The histogram value at quantile `q` (0 < q ≤ 1), as the upper
    /// bound of the bucket containing it — a conservative estimate with
    /// power-of-two resolution.
    fn percentile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (bucket, &count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return 1u64 << bucket;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }

    /// A plain-value copy of the counters; `snapshot_age` is supplied by
    /// the engine (it lives on the epoch cell, not in the counters).
    ///
    /// The copy is internally *consistent*: a scrape racing a
    /// mid-flight `record` can never report
    /// `epoch_queries > queries`, `errors > queries`, or
    /// `matches > candidates`. Dependent counters are loaded in the
    /// opposite order to the writer (so the subordinate value is never
    /// newer than its ceiling) and clamped — the clamp also covers the
    /// epoch-reset race, where `epoch_queries` flies back to 0.
    pub fn snapshot(&self, snapshot_age: Duration) -> QueryStatsSnapshot {
        // Writer order in `record` is queries → epoch_queries → errors →
        // candidates → matches; read each subordinate before its ceiling.
        let epoch_queries = self.epoch_queries.load(Ordering::Acquire);
        let errors = self.errors.load(Ordering::Acquire);
        let matches = self.matches.load(Ordering::Acquire);
        let candidates = self.candidates.load(Ordering::Acquire);
        let queries = self.queries.load(Ordering::Acquire);
        QueryStatsSnapshot {
            epoch: self.epoch.load(Ordering::Relaxed),
            queries,
            epoch_queries: epoch_queries.min(queries),
            errors: errors.min(queries),
            candidates,
            matches: matches.min(candidates),
            batches: self.batches.load(Ordering::Relaxed),
            delta_publishes: self.delta_publishes.load(Ordering::Relaxed),
            full_publishes: self.full_publishes.load(Ordering::Relaxed),
            publish_ns: self.publish_ns.load(Ordering::Relaxed),
            p50_us: self.percentile_us(0.50),
            p99_us: self.percentile_us(0.99),
            snapshot_age,
        }
    }
}

/// A plain-value copy of [`QueryStats`], printable for operator logs —
/// the read-side sibling of [`crate::IngestStatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStatsSnapshot {
    /// Current epoch number.
    pub epoch: u64,
    /// Queries answered since engine start.
    pub queries: u64,
    /// Queries answered against the current epoch's snapshot.
    pub epoch_queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Total filter-step candidates across all range queries.
    pub candidates: u64,
    /// Total refined matches (must + may) across all range queries.
    pub matches: u64,
    /// Batches executed via [`QueryEngine::run_batch`].
    pub batches: u64,
    /// Epoch publications after the first. Every publication is the same
    /// O(1) clone; the two counters are what the scrape has always
    /// carried (`delta` / `full` named the two publication paths there
    /// used to be) and stay until the scrape table is next revised.
    pub delta_publishes: u64,
    /// Always 1: epoch 0, taken at engine start.
    pub full_publishes: u64,
    /// Total nanoseconds from publish start to snapshot swap, summed
    /// over every publication (epoch 0 included). This is the
    /// *visibility* latency — the time a caller waits for a fresh epoch.
    pub publish_ns: u64,
    /// Median query latency (µs, bucketed upper bound).
    pub p50_us: u64,
    /// 99th-percentile query latency (µs, bucketed upper bound).
    pub p99_us: u64,
    /// Age of the currently published snapshot.
    pub snapshot_age: Duration,
}

impl QueryStatsSnapshot {
    /// Refine selectivity: matched / filtered candidates (0 when no
    /// candidates have been seen). Low values mean the filter step is
    /// doing its job.
    pub fn match_ratio(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.matches as f64 / self.candidates as f64
        }
    }

    /// Mean time to make an epoch visible (publish start → snapshot
    /// swap), in microseconds, across all publications so far.
    pub fn mean_publish_us(&self) -> f64 {
        let publishes = self.delta_publishes + self.full_publishes;
        if publishes == 0 {
            0.0
        } else {
            self.publish_ns as f64 / 1e3 / publishes as f64
        }
    }
}

impl fmt::Display for QueryStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} (age {} ms): {} queries ({} this epoch), p50 {} us, p99 {} us, \
             {} candidates -> {} matches ({:.2} ratio), {} batches, \
             {} delta / {} full publishes ({:.0} us mean), {} errors",
            self.epoch,
            self.snapshot_age.as_millis(),
            self.queries,
            self.epoch_queries,
            self.p50_us,
            self.p99_us,
            self.candidates,
            self.matches,
            self.match_ratio(),
            self.batches,
            self.delta_publishes,
            self.full_publishes,
            self.mean_publish_us(),
            self.errors,
        )
    }
}

/// The epoch/snapshot query engine over a [`SharedDatabase`]. See the
/// module docs for the concurrency model and the staleness argument.
#[derive(Debug)]
pub struct QueryEngine {
    db: SharedDatabase,
    cell: Arc<RwLock<Arc<EpochSnapshot>>>,
    stats: Arc<QueryStats>,
    /// Serializes publishers (a manual `publish_now` racing the
    /// background thread) so epochs swap in in the order they were
    /// cloned; queries never touch it.
    publishing: Arc<Mutex<()>>,
    publisher: Option<(Sender<()>, JoinHandle<()>)>,
}

/// Publishes the next epoch's snapshot: clone the live database under a
/// read lock held for the O(1) clone, swap it in, drop the retired
/// snapshot (with no lock held — its last reader may be us, and then the
/// nodes the live database has since replaced are freed here).
fn publish(
    db: &SharedDatabase,
    cell: &RwLock<Arc<EpochSnapshot>>,
    stats: &QueryStats,
    publishing: &Mutex<()>,
) -> u64 {
    let _one_at_a_time = publishing.lock().unwrap_or_else(|e| e.into_inner());
    let t0 = Instant::now();
    let state = db.with_read(Database::clone);
    stats.delta_publishes.fetch_add(1, Ordering::Relaxed);
    let epoch = stats.epoch.fetch_add(1, Ordering::Relaxed) + 1;
    stats.epoch_queries.store(0, Ordering::Relaxed);
    let snap = Arc::new(EpochSnapshot {
        db: state,
        epoch,
        published_at: Instant::now(),
    });
    let retired = std::mem::replace(&mut *cell.write(), snap);
    stats
        .publish_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    drop(retired);
    epoch
}

impl QueryEngine {
    /// Builds an engine over `db`: takes the epoch-0 snapshot and (per
    /// `config`) spawns the background epoch publisher — the only thread
    /// an engine ever owns.
    pub fn new(db: SharedDatabase, config: QueryEngineConfig) -> Self {
        let stats = Arc::new(QueryStats::default());
        let publishing: Arc<Mutex<()>> = Arc::default();
        let t0 = Instant::now();
        let state = db.with_read(Database::clone);
        stats.full_publishes.fetch_add(1, Ordering::Relaxed);
        stats
            .publish_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let initial = Arc::new(EpochSnapshot {
            db: state,
            epoch: 0,
            published_at: Instant::now(),
        });
        let cell = Arc::new(RwLock::new(initial));
        // `Some(Duration::ZERO)` means "publisher off" just like `None`
        // (a 0 ms republish loop would only busy-spin).
        let publisher = config
            .epoch_interval
            .filter(|interval| !interval.is_zero())
            .map(|interval| {
                let (stop_tx, stop_rx) = bounded::<()>(1);
                let db = db.clone();
                let cell = Arc::clone(&cell);
                let stats = Arc::clone(&stats);
                let publishing = Arc::clone(&publishing);
                let handle = std::thread::spawn(move || {
                    while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                        publish(&db, &cell, &stats, &publishing);
                    }
                });
                (stop_tx, handle)
            });
        QueryEngine {
            db,
            cell,
            stats,
            publishing,
            publisher,
        }
    }

    /// The underlying locked handle (for read-your-writes queries and for
    /// mutations, which always go through the live database).
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// The latest published snapshot: one `Arc` clone, no lock held
    /// afterwards.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.cell.read().clone()
    }

    /// Publishes a fresh epoch immediately (read-your-writes barrier) and
    /// returns its number.
    pub fn publish_now(&self) -> u64 {
        publish(&self.db, &self.cell, &self.stats, &self.publishing)
    }

    /// Current counters plus the age of the published snapshot.
    pub fn stats(&self) -> QueryStatsSnapshot {
        let age = self.cell.read().age();
        self.stats.snapshot(age)
    }

    /// May/must range query against the latest snapshot, on the calling
    /// thread; lock-free after the snapshot grab.
    ///
    /// # Errors
    ///
    /// See [`Database::range_query`].
    pub fn range_query(&self, region: &QueryRegion) -> Result<RangeAnswer, CoreError> {
        let t0 = Instant::now();
        let result = self.snapshot().database().range_query(region);
        self.record_range(t0.elapsed(), &result);
        result
    }

    /// "Objects within `radius` miles of `center` at time `t`" against
    /// the latest snapshot.
    ///
    /// # Errors
    ///
    /// See [`Database::within_distance_of_point`].
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

    /// Position query against the latest snapshot (§3.3 bound included).
    ///
    /// # Errors
    ///
    /// See [`Database::position_of`].
    pub fn position_of(&self, id: ObjectId, t: f64) -> Result<PositionAnswer, CoreError> {
        let t0 = Instant::now();
        let snap = self.snapshot();
        let result = snap.database().position_of(id, t);
        self.stats.record(t0.elapsed(), 0, 0, result.is_err());
        result
    }

    /// Executes one `modb-query` statement against the latest snapshot.
    ///
    /// # Errors
    ///
    /// See [`modb_query::run`].
    pub fn run_query(&self, src: &str) -> Result<QueryResult, QueryError> {
        let t0 = Instant::now();
        let snap = self.snapshot();
        let result = modb_query::run(snap.database(), src);
        self.record_result(t0.elapsed(), &result);
        result
    }

    /// Splits a `;`-separated `modb-query` script and runs its
    /// statements in order on the calling thread, all against the one
    /// snapshot taken up front; each statement gets its own verdict and
    /// its own latency sample. A script whose quoting never closes cannot
    /// be split; that comes back as a single parse-error verdict for the
    /// whole batch.
    pub fn run_batch(&self, src: &str) -> Vec<Result<QueryResult, QueryError>> {
        let statements = match modb_query::split_statements(src) {
            Ok(statements) => statements,
            Err(e) => return vec![Err(QueryError::Parse(modb_query::ParseError::Lex(e)))],
        };
        let snap = self.snapshot();
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        statements
            .into_iter()
            .map(|statement| {
                let t0 = Instant::now();
                let result = modb_query::run(snap.database(), statement);
                self.record_result(t0.elapsed(), &result);
                result
            })
            .collect()
    }

    /// Stops the publisher thread, returning the final counters.
    pub fn shutdown(mut self) -> QueryStatsSnapshot {
        let snapshot = self.stats();
        self.stop_publisher();
        snapshot
    }

    fn stop_publisher(&mut self) {
        if let Some((stop, handle)) = self.publisher.take() {
            let _ = stop.send(());
            drop(stop);
            let _ = handle.join();
        }
    }

    fn record_range(&self, elapsed: Duration, result: &Result<RangeAnswer, CoreError>) {
        match result {
            Ok(answer) => self.stats.record(
                elapsed,
                answer.candidates,
                answer.must.len() + answer.may.len(),
                false,
            ),
            Err(_) => self.stats.record(elapsed, 0, 0, true),
        }
    }

    fn record_result(&self, elapsed: Duration, result: &Result<QueryResult, QueryError>) {
        match result {
            Ok(QueryResult::Range(answer)) => self.stats.record(
                elapsed,
                answer.candidates,
                answer.must.len() + answer.may.len(),
                false,
            ),
            Ok(_) => self.stats.record(elapsed, 0, 0, false),
            Err(_) => self.stats.record(elapsed, 0, 0, true),
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.stop_publisher();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{
        DatabaseConfig, MovingObject, PolicyDescriptor, PositionAttribute, UpdateMessage,
        UpdatePosition,
    };
    use modb_geom::{Polygon, Rect};
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};

    fn shared(n_objects: u64) -> SharedDatabase {
        let route = Route::from_vertices(
            RouteId(1),
            "r",
            vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)],
        )
        .unwrap();
        let network = RouteNetwork::from_routes([route]).unwrap();
        let db = SharedDatabase::new(Database::new(network, DatabaseConfig::default()));
        for i in 0..n_objects {
            db.register_moving(MovingObject {
                id: ObjectId(i),
                name: format!("veh-{i}"),
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: Point::new(i as f64, 0.0),
                    start_arc: i as f64,
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

    fn manual_config() -> QueryEngineConfig {
        QueryEngineConfig {
            epoch_interval: None,
        }
    }

    fn region(x0: f64, x1: f64, t: f64) -> QueryRegion {
        let g = Polygon::rectangle(&Rect::new(Point::new(x0, -1.0), Point::new(x1, 1.0))).unwrap();
        QueryRegion::at_instant(g, t)
    }

    #[test]
    fn snapshot_matches_locked_reads() {
        let db = shared(100);
        let engine = QueryEngine::new(db.clone(), manual_config());
        for (x0, x1, t) in [(0.0, 50.0, 0.0), (10.0, 400.0, 5.0), (0.0, 1000.0, 2.0)] {
            let r = region(x0, x1, t);
            let locked = db.range_query(&r).unwrap();
            let snap = engine.range_query(&r).unwrap();
            assert_eq!(locked, snap, "x=[{x0},{x1}] t={t}");
        }
        let locked = db
            .within_distance_of_point(Point::new(50.0, 0.0), 20.0, 1.0)
            .unwrap();
        let snap = engine
            .within_distance_of_point(Point::new(50.0, 0.0), 20.0, 1.0)
            .unwrap();
        assert_eq!(locked, snap);
        assert_eq!(
            engine.position_of(ObjectId(3), 2.0).unwrap(),
            db.position_of(ObjectId(3), 2.0).unwrap()
        );
    }

    #[test]
    fn staleness_is_bounded_by_publication() {
        let db = shared(10);
        let engine = QueryEngine::new(db.clone(), manual_config());
        let epoch0 = engine.snapshot().epoch();
        db.apply_update(
            ObjectId(0),
            &UpdateMessage::basic(5.0, UpdatePosition::Arc(500.0), 1.0),
        )
        .unwrap();
        // The snapshot still answers from the pre-update state…
        assert_eq!(
            engine.position_of(ObjectId(0), 5.0).unwrap().arc,
            5.0,
            "snapshot is stale until the next publish"
        );
        // …until a new epoch is published.
        let epoch1 = engine.publish_now();
        assert_eq!(epoch1, epoch0 + 1);
        assert_eq!(engine.position_of(ObjectId(0), 5.0).unwrap().arc, 500.0);
        assert_eq!(engine.snapshot().epoch(), epoch1);
    }

    #[test]
    fn background_publisher_advances_epochs() {
        let db = shared(5);
        let engine = QueryEngine::new(
            db.clone(),
            QueryEngineConfig {
                epoch_interval: Some(Duration::from_millis(2)),
            },
        );
        db.apply_update(
            ObjectId(0),
            &UpdateMessage::basic(1.0, UpdatePosition::Arc(123.0), 1.0),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.snapshot().epoch() < 2 {
            assert!(Instant::now() < deadline, "publisher never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The update became visible without any manual publish.
        assert_eq!(engine.position_of(ObjectId(0), 1.0).unwrap().arc, 123.0);
        let stats = engine.shutdown();
        assert!(stats.epoch >= 2);
    }

    #[test]
    fn batch_preserves_order_and_verdicts() {
        let db = shared(50);
        let engine = QueryEngine::new(db.clone(), manual_config());
        let results = engine.run_batch(
            "RETRIEVE OBJECTS INSIDE RECT (0, -1, 30, 1) AT TIME 0;\n\
             RETRIEVE POSITION OF OBJECT 7 AT TIME 2;\n\
             garbage;\n\
             RETRIEVE OBJECTS WITHIN 5 OF POINT (10, 0) AT TIME 0",
        );
        assert_eq!(results.len(), 4);
        let expected = db.range_query(&region(0.0, 30.0, 0.0)).unwrap();
        assert_eq!(results[0].as_ref().unwrap().as_range().unwrap(), &expected);
        assert_eq!(results[1].as_ref().unwrap().as_position().unwrap().arc, 9.0);
        assert!(matches!(results[2], Err(QueryError::Parse(_))));
        let expected = db
            .within_distance_of_point(Point::new(10.0, 0.0), 5.0, 0.0)
            .unwrap();
        assert_eq!(results[3].as_ref().unwrap().as_range().unwrap(), &expected);
        let stats = engine.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn run_batch_splits_statements() {
        let db = shared(20);
        let engine = QueryEngine::new(db, manual_config());
        let results = engine.run_batch(
            "RETRIEVE POSITION OF OBJECT 1 AT TIME 0;\n\
             RETRIEVE OBJECTS INSIDE RECT (0, -1, 10, 1) AT TIME 0;",
        );
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
    }

    #[test]
    fn stats_report_latency_and_ratio() {
        let db = shared(100);
        let engine = QueryEngine::new(db, manual_config());
        for _ in 0..20 {
            engine.range_query(&region(0.0, 200.0, 0.0)).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 20);
        assert_eq!(stats.epoch_queries, 20);
        assert!(stats.p50_us > 0);
        assert!(stats.p99_us >= stats.p50_us);
        assert!(stats.candidates > 0);
        assert!(stats.match_ratio() > 0.0 && stats.match_ratio() <= 1.0);
        let line = stats.to_string();
        assert!(line.contains("p99"), "{line}");
        assert!(line.contains("epoch 0"), "{line}");
        // Publishing resets the per-epoch counter but not totals.
        engine.publish_now();
        let stats = engine.stats();
        assert_eq!(stats.queries, 20);
        assert_eq!(stats.epoch_queries, 0);
    }

    #[test]
    fn run_batch_rejects_unterminated_literal_as_one_verdict() {
        let db = shared(5);
        let engine = QueryEngine::new(db, manual_config());
        let results = engine.run_batch(
            "RETRIEVE POSITION OF OBJECT 'veh-1 AT TIME 0; RETRIEVE POSITION OF OBJECT 2 AT TIME 0",
        );
        assert_eq!(results.len(), 1, "an unsplittable script is one verdict");
        assert!(matches!(results[0], Err(QueryError::Parse(_))));
        // Quoted `;` still splits correctly (two statements, not three).
        let engine2 = QueryEngine::new(shared(5), manual_config());
        let results = engine2.run_batch(
            "RETRIEVE POSITION OF OBJECT 'a;b' AT TIME 0; RETRIEVE POSITION OF OBJECT 1 AT TIME 0",
        );
        assert_eq!(results.len(), 2);
        assert!(results[1].is_ok());
    }

    #[test]
    fn percentile_edges() {
        // Empty histogram: every quantile is 0.
        let stats = QueryStats::default();
        assert_eq!(stats.percentile_us(0.5), 0);
        assert_eq!(stats.percentile_us(1.0), 0);
        // One sample at ~100 µs: every quantile is its bucket's upper
        // bound (128 = 2^7).
        stats.record(Duration::from_micros(100), 0, 0, false);
        assert_eq!(stats.percentile_us(0.001), 128);
        assert_eq!(stats.percentile_us(1.0), 128);
        // A latency beyond the top bucket saturates instead of indexing
        // out of bounds, and q = 1.0 lands on it.
        stats.record(Duration::from_secs(u64::MAX / 1_000_000_000), 0, 0, false);
        assert_eq!(stats.percentile_us(1.0), 1u64 << (LATENCY_BUCKETS - 1));
        // The median is still the small sample.
        assert_eq!(stats.percentile_us(0.5), 128);
    }

    #[test]
    fn snapshot_is_never_torn_under_concurrent_records() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let stats = Arc::new(QueryStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // matches < candidates per record, error on some.
                        stats.record(Duration::from_micros(7), 5, 2, n.is_multiple_of(4));
                        n += 1;
                    }
                })
            })
            .collect();
        for _ in 0..5_000 {
            let snap = stats.snapshot(Duration::ZERO);
            assert!(
                snap.epoch_queries <= snap.queries,
                "torn: epoch_queries {} > queries {}",
                snap.epoch_queries,
                snap.queries
            );
            assert!(
                snap.errors <= snap.queries,
                "torn: errors {} > queries {}",
                snap.errors,
                snap.queries
            );
            assert!(
                snap.matches <= snap.candidates,
                "torn: matches {} > candidates {}",
                snap.matches,
                snap.candidates
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn zero_interval_disables_publisher_and_age_tracks_last_publication() {
        let db = shared(5);
        let engine = QueryEngine::new(
            db.clone(),
            QueryEngineConfig {
                epoch_interval: Some(Duration::ZERO),
            },
        );
        // No background publisher: the epoch stays put…
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            engine.snapshot().epoch(),
            0,
            "a zero interval must not spawn a publisher"
        );
        // …and the reported age keeps accruing from the last *actual*
        // publication (engine start), not from some phantom refresh.
        let age = engine.stats().snapshot_age;
        assert!(
            age >= Duration::from_millis(30),
            "age {age:?} should grow while no publishes happen"
        );
        // A manual publish is a real publication: the age resets.
        engine.publish_now();
        assert!(engine.stats().snapshot_age < age);
        assert_eq!(engine.snapshot().epoch(), 1);
    }

    #[test]
    fn every_publish_is_the_same_clone_and_shares_the_live_structure() {
        let db = shared(50);
        let engine = QueryEngine::new(db.clone(), manual_config());
        engine.publish_now();
        // A snapshot is a clone: with no write since, it shares every
        // tree node and bucket with the live database.
        let (shared, total) = db.with_read(|live| live.shared_with(engine.snapshot().database()));
        assert_eq!(shared, total);
        for round in 1..=3u64 {
            db.apply_update(
                ObjectId(round),
                &UpdateMessage::basic(round as f64, UpdatePosition::Arc(500.0 + round as f64), 1.0),
            )
            .unwrap();
            engine.publish_now();
            assert_eq!(
                engine
                    .position_of(ObjectId(round), round as f64)
                    .unwrap()
                    .arc,
                500.0 + round as f64
            );
        }
        // Epoch 0 is the one publish the scrape calls full; the four
        // since count as deltas.
        let stats = engine.stats();
        assert_eq!(stats.full_publishes, 1);
        assert_eq!(stats.delta_publishes, 4);
        // The snapshot is the live tree, so it answers exactly like the
        // locked database, traversal statistics included.
        let r = region(0.0, 1000.0, 2.0);
        assert_eq!(engine.range_query(&r).unwrap(), db.range_query(&r).unwrap());
    }

    /// A reader that pinned an old epoch keeps reading it, and keeps it
    /// alive, however many epochs are published and retired meanwhile.
    #[test]
    fn a_pinned_epoch_outlives_its_retirement_unchanged() {
        let db = shared(50);
        let engine = QueryEngine::new(db.clone(), manual_config());
        let pinned = engine.snapshot();
        let r = region(0.0, 1000.0, 2.0);
        let at_pin = pinned.database().range_query(&r).unwrap();
        for round in 1..=20u64 {
            for i in 0..50u64 {
                let arc = ((i * 13 + round * 29) % 1000) as f64;
                db.apply_update(
                    ObjectId(i),
                    &UpdateMessage::basic(round as f64, UpdatePosition::Arc(arc), 0.8),
                )
                .unwrap();
            }
            engine.publish_now();
        }
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.database().range_query(&r).unwrap(), at_pin);
        assert_eq!(
            pinned.database().position_of(ObjectId(7), 0.0).unwrap().arc,
            7.0
        );
        assert_ne!(engine.range_query(&r).unwrap(), at_pin);
    }

    #[test]
    fn drop_with_background_threads_does_not_hang() {
        let db = shared(5);
        let engine = QueryEngine::new(
            db,
            QueryEngineConfig {
                epoch_interval: Some(Duration::from_millis(1)),
            },
        );
        std::thread::sleep(Duration::from_millis(5));
        drop(engine); // must join the publisher
    }

    #[test]
    fn a_batch_reads_one_snapshot_under_a_live_writer_and_publisher() {
        use std::sync::atomic::AtomicBool;
        let db = shared(200);
        let engine = QueryEngine::new(
            db.clone(),
            QueryEngineConfig {
                epoch_interval: Some(Duration::from_millis(1)),
            },
        );
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // The writer shuffles the whole fleet along the route, so
            // consecutive epochs give different range answers.
            s.spawn(|| {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    for i in 0..200u64 {
                        let arc = ((i * 5 + round * 7) % 1000) as f64;
                        db.apply_update(
                            ObjectId(i),
                            &UpdateMessage::basic(
                                round as f64 * 1e-5,
                                UpdatePosition::Arc(arc),
                                0.9,
                            ),
                        )
                        .unwrap();
                    }
                }
            });
            // Same statement twice in one script: whatever epoch the
            // batch lands on, both verdicts come from it. Keep going
            // until the publisher has swapped snapshots under us several
            // times (a condition wait on the publisher, not a sleep).
            let stmt = "RETRIEVE OBJECTS INSIDE RECT (0, -1, 500, 1) AT TIME 5";
            let script = format!("{stmt}; {stmt}");
            let first_epoch = engine.snapshot().epoch();
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut batches = 0;
            // A failure is carried out of the loop so the writer is
            // always told to stop before the scope joins it.
            let mut failure = None;
            while batches < 300 || engine.snapshot().epoch() < first_epoch + 5 {
                if Instant::now() >= deadline {
                    failure = Some("publisher stalled".to_string());
                    break;
                }
                let verdicts = engine.run_batch(&script);
                if verdicts.len() != 2 || verdicts[0].is_err() || verdicts[0] != verdicts[1] {
                    failure = Some(format!("one batch saw two snapshots: {verdicts:?}"));
                    break;
                }
                batches += 1;
            }
            stop.store(true, Ordering::Relaxed);
            assert_eq!(failure, None);
        });
    }

    #[test]
    fn concurrent_snapshot_queries_with_live_writers() {
        let db = shared(200);
        let engine = QueryEngine::new(
            db.clone(),
            QueryEngineConfig {
                epoch_interval: Some(Duration::from_millis(1)),
            },
        );
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let db = db.clone();
                s.spawn(move || {
                    for round in 1..=100u64 {
                        for i in (w * 100)..(w * 100 + 100) {
                            db.apply_update(
                                ObjectId(i),
                                &UpdateMessage::basic(
                                    round as f64 * 0.05,
                                    UpdatePosition::Arc((i as f64 + round as f64).min(1000.0)),
                                    0.9,
                                ),
                            )
                            .unwrap();
                        }
                    }
                });
            }
            for _ in 0..4 {
                let engine = &engine;
                s.spawn(move || {
                    for _ in 0..100 {
                        let r = engine.range_query(&region(0.0, 1000.0, 5.0)).unwrap();
                        assert!(r.candidates <= 200);
                        // A snapshot is internally consistent: the scan
                        // baseline over the same snapshot agrees.
                        let snap = engine.snapshot();
                        let a = snap
                            .database()
                            .range_query(&region(0.0, 400.0, 5.0))
                            .unwrap();
                        let b = snap
                            .database()
                            .range_query_scan(&region(0.0, 400.0, 5.0))
                            .unwrap();
                        assert_eq!(a.must, b.must);
                        assert_eq!(a.may, b.may);
                    }
                });
            }
        });
        let stats = engine.shutdown();
        assert!(stats.queries >= 400);
    }
}
