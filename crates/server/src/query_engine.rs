//! Statement reads: every statement runs lock-free on its caller's thread
//! against a clone of the database taken when it starts.
//!
//! Every query on [`crate::SharedDatabase`] holds the global read lock
//! for its whole filter + refine pass, so one writer stalls every reader
//! and readers serialize on lock traffic. The engine instead takes the
//! read lock only for as long as it takes to clone the [`Database`], and
//! runs filter + refine on the clone with **no lock held**.
//!
//! **A clone is O(1).** The database's object table and index are
//! path-copying ([`Database`]'s docs): a clone copies a handful of
//! pointers and shares every record, tree node and bucket with the live
//! database. What a clone costs is paid by the writes that overlap it,
//! each copying the one path it changes the first time it touches a node
//! the clone still holds; the clone is dropped when its statement ends,
//! and with it every node the live database has since replaced.
//!
//! **A statement runs on the thread that received it.** The engine owns
//! no thread and has one read path: [`QueryEngine::run_batch_lagging`]
//! ([`QueryEngine::run_batch`] at zero lag) splits a `;`-separated script,
//! takes **one** clone up front and runs its statements in order against
//! it on the caller, filter and refine alike. Served statements, the
//! REPL and the ledger all read through it; concurrency across queries
//! comes from callers — one thread per connection in the wire front-end.
//!
//! **No staleness of its own.** A statement sees every write applied
//! before it began. Since a write is applied before it gets its LSN
//! (DESIGN §7), every acknowledged update is in the clone of any
//! statement that starts after the ack — on a leader, a read-your-writes
//! token is covered by construction. A follower's answers trail its
//! leader by its replication lag, and the query front-end prices that lag
//! into every answer it serves.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use modb_core::Database;
use modb_query::{QueryError, QueryResult};

use crate::shared::SharedDatabase;

/// Read by nothing: the engine has no knob. Kept because `modb_ledger/`
/// still builds one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryEngineConfig {
    pub epoch_interval: Option<Duration>,
}

/// Latency histogram buckets: bucket `b` counts queries whose latency in
/// microseconds lies in `[2^(b-1), 2^b)`.
const LATENCY_BUCKETS: usize = 40;

/// Counters kept by the query engine, mirroring [`crate::IngestStats`]
/// on the read side. All atomic; shared between the statements running
/// on the engine and any observer.
pub struct QueryStats {
    queries: AtomicU64,
    errors: AtomicU64,
    candidates: AtomicU64,
    matches: AtomicU64,
    batches: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for QueryStats {
    fn default() -> Self {
        QueryStats {
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            matches: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl fmt::Debug for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryStats")
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .finish()
    }
}

impl QueryStats {
    fn record(&self, elapsed: Duration, candidates: usize, matches: usize, error: bool) {
        // Ceilings first, subordinates second, with release/acquire
        // pairing so `snapshot` (which reads in the opposite order) can
        // never observe a subordinate ahead of its ceiling.
        self.queries.fetch_add(1, Ordering::Relaxed);
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

    /// A plain-value copy of the counters.
    ///
    /// The copy is internally *consistent*: a scrape racing a
    /// mid-flight `record` can never report `errors > queries` or
    /// `matches > candidates`. Dependent counters are loaded in the
    /// opposite order to the writer (so the subordinate value is never
    /// newer than its ceiling) and clamped.
    pub fn snapshot(&self) -> QueryStatsSnapshot {
        // Writer order in `record` is queries → errors → candidates →
        // matches; read each subordinate before its ceiling.
        let errors = self.errors.load(Ordering::Acquire);
        let matches = self.matches.load(Ordering::Acquire);
        let candidates = self.candidates.load(Ordering::Acquire);
        let queries = self.queries.load(Ordering::Acquire);
        QueryStatsSnapshot {
            queries,
            errors: errors.min(queries),
            candidates,
            matches: matches.min(candidates),
            batches: self.batches.load(Ordering::Relaxed),
            p50_us: self.percentile_us(0.50),
            p99_us: self.percentile_us(0.99),
            ..QueryStatsSnapshot::default()
        }
    }
}

/// A plain-value copy of [`QueryStats`], printable for operator logs —
/// the read-side sibling of [`crate::IngestStatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStatsSnapshot {
    /// Queries answered since engine start.
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Total filter-step candidates across all range queries.
    pub candidates: u64,
    /// Total refined matches (must + may) across all range queries.
    pub matches: u64,
    /// Batches executed via [`QueryEngine::run_batch`].
    pub batches: u64,
    /// Median query latency (µs, bucketed upper bound).
    pub p50_us: u64,
    /// 99th-percentile query latency (µs, bucketed upper bound).
    pub p99_us: u64,
    /// Always 0, and not on the wire: the engine publishes nothing. The
    /// field is there because `modb_ledger/` reads it.
    #[doc(hidden)]
    pub delta_publishes: u64,
    /// Always 0, and not on the wire; read by `modb_ledger/`.
    #[doc(hidden)]
    pub full_publishes: u64,
    /// Always 0, and not on the wire; read by `modb_ledger/`.
    #[doc(hidden)]
    pub publish_ns: u64,
    /// Always zero, and not on the wire; read by `modb_ledger/`.
    #[doc(hidden)]
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
}

impl fmt::Display for QueryStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries, p50 {} us, p99 {} us, \
             {} candidates -> {} matches ({:.2} ratio), {} batches, {} errors",
            self.queries,
            self.p50_us,
            self.p99_us,
            self.candidates,
            self.matches,
            self.match_ratio(),
            self.batches,
            self.errors,
        )
    }
}

/// The query engine over a [`SharedDatabase`]. See the module docs for
/// the concurrency model.
#[derive(Debug)]
pub struct QueryEngine {
    db: SharedDatabase,
    stats: QueryStats,
}

impl QueryEngine {
    /// Builds an engine over `db`. It owns no thread and holds no clone:
    /// each statement takes its own.
    pub fn new(db: SharedDatabase) -> Self {
        QueryEngine {
            db,
            stats: QueryStats::default(),
        }
    }

    /// The underlying locked handle, which the statements clone.
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// A clone of the database as it stands now, taken under the read
    /// lock held for the O(1) clone; no lock is held afterwards.
    pub fn snapshot(&self) -> Database {
        self.db.with_read(Database::clone)
    }

    /// Does nothing and returns 0: every statement reads a fresh clone.
    /// Kept because `modb_ledger/` calls it.
    #[doc(hidden)]
    pub fn publish_now(&self) -> u64 {
        0
    }

    /// Current counters.
    pub fn stats(&self) -> QueryStatsSnapshot {
        self.stats.snapshot()
    }

    /// Splits a `;`-separated `modb-query` script and runs its
    /// statements in order on the calling thread, all against the one
    /// clone taken up front; each statement gets its own verdict and its
    /// own latency sample. A script whose quoting never closes cannot be
    /// split; that comes back as a single parse-error verdict for the
    /// whole batch.
    pub fn run_batch(&self, src: &str) -> Vec<Result<QueryResult, QueryError>> {
        self.run_batch_lagging(src, 0.0)
    }

    /// [`QueryEngine::run_batch`] on a copy that may trail the truth by
    /// `lag` minutes — a follower's lag clock as the batch starts: every
    /// answer is widened by what the objects may have moved since
    /// ([`modb_query::run_lagging`]), so this is exactly what a follower
    /// serves. `lag == 0` is `run_batch`.
    pub fn run_batch_lagging(&self, src: &str, lag: f64) -> Vec<Result<QueryResult, QueryError>> {
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
                let result = modb_query::run_lagging(&snap, statement, lag);
                self.record_result(t0.elapsed(), &result);
                result
            })
            .collect()
    }

    /// The final counters; the engine has nothing to stop. Kept because
    /// `modb_ledger/` calls it.
    #[doc(hidden)]
    pub fn shutdown(self) -> QueryStatsSnapshot {
        self.stats()
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

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{
        DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute, UpdateMessage,
        UpdatePosition,
    };
    use modb_geom::{Point, Polygon, Rect};
    use modb_index::QueryRegion;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use modb_wal::WalRecord;

    fn shared(n_objects: u64) -> SharedDatabase {
        let route = Route::from_vertices(
            RouteId(1),
            "r",
            vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)],
        )
        .unwrap();
        let network = RouteNetwork::from_routes([route]).unwrap();
        let mut db = Database::new(network, DatabaseConfig::default());
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
        SharedDatabase::new(db)
    }

    /// A live write, as a leader's write path applies it.
    fn update(db: &SharedDatabase, id: u64, t: f64, arc: f64, speed: f64) {
        let msg = UpdateMessage::basic(t, UpdatePosition::Arc(arc), speed);
        db.apply(WalRecord::Update {
            id: ObjectId(id),
            msg,
        })
        .unwrap();
    }

    /// One statement through the engine's read path.
    fn run(engine: &QueryEngine, statement: &str) -> QueryResult {
        let mut verdicts = engine.run_batch(statement);
        assert_eq!(verdicts.len(), 1, "{statement}");
        verdicts.pop().unwrap().unwrap()
    }

    /// The statement for [`region`].
    fn rect(x0: f64, x1: f64, t: f64) -> String {
        format!("RETRIEVE OBJECTS INSIDE RECT ({x0}, -1, {x1}, 1) AT TIME {t}")
    }

    fn region(x0: f64, x1: f64, t: f64) -> QueryRegion {
        let g = Polygon::rectangle(&Rect::new(Point::new(x0, -1.0), Point::new(x1, 1.0))).unwrap();
        QueryRegion::at_instant(g, t)
    }

    #[test]
    fn snapshot_matches_locked_reads() {
        let db = shared(100);
        let engine = QueryEngine::new(db.clone());
        for (x0, x1, t) in [(0.0, 50.0, 0.0), (10.0, 400.0, 5.0), (0.0, 1000.0, 2.0)] {
            let r = region(x0, x1, t);
            let locked = db.with_read(|d| d.range_query(&r)).unwrap();
            let snap = run(&engine, &rect(x0, x1, t));
            assert_eq!(snap.as_range(), Some(&locked), "x=[{x0},{x1}] t={t}");
        }
        let locked = db
            .with_read(|d| d.within_distance_of_point(Point::new(50.0, 0.0), 20.0, 1.0))
            .unwrap();
        let snap = run(
            &engine,
            "RETRIEVE OBJECTS WITHIN 20 OF POINT (50, 0) AT TIME 1",
        );
        assert_eq!(snap.as_range(), Some(&locked));
        let snap = run(&engine, "RETRIEVE POSITION OF OBJECT 3 AT TIME 2");
        assert_eq!(
            snap.as_position(),
            Some(&db.with_read(|d| d.position_of(ObjectId(3), 2.0)).unwrap())
        );
    }

    /// No publication step stands between a write and the statements
    /// that start after it: each one, on every entry point, answers from
    /// the write just applied.
    #[test]
    fn a_statement_sees_every_write_applied_before_it_began() {
        let db = shared(10);
        let engine = QueryEngine::new(db.clone());
        for round in 1..=5u64 {
            let (t, arc) = (round as f64, 100.0 * round as f64);
            update(&db, 0, t, arc, 1.0);
            let stmt = format!("RETRIEVE POSITION OF OBJECT 0 AT TIME {t}");
            let single = run(&engine, &stmt);
            assert_eq!(single.as_position().unwrap().arc, arc, "round {round}");
            let batch = engine.run_batch(&format!("{stmt}; {stmt}"));
            for verdict in &batch {
                assert_eq!(verdict.as_ref().unwrap(), &single, "round {round}");
            }
            let near = run(&engine, &rect(arc - 0.5, arc + 0.5, t));
            assert!(
                near.as_range().unwrap().all().contains(&ObjectId(0)),
                "round {round}"
            );
        }
    }

    #[test]
    fn batch_preserves_order_and_verdicts() {
        let db = shared(50);
        let engine = QueryEngine::new(db.clone());
        let results = engine.run_batch(
            "RETRIEVE OBJECTS INSIDE RECT (0, -1, 30, 1) AT TIME 0;\n\
             RETRIEVE POSITION OF OBJECT 7 AT TIME 2;\n\
             garbage;\n\
             RETRIEVE OBJECTS WITHIN 5 OF POINT (10, 0) AT TIME 0",
        );
        assert_eq!(results.len(), 4);
        let expected = db
            .with_read(|d| d.range_query(&region(0.0, 30.0, 0.0)))
            .unwrap();
        assert_eq!(results[0].as_ref().unwrap().as_range().unwrap(), &expected);
        assert_eq!(results[1].as_ref().unwrap().as_position().unwrap().arc, 9.0);
        assert!(matches!(results[2], Err(QueryError::Parse(_))));
        let expected = db
            .with_read(|d| d.within_distance_of_point(Point::new(10.0, 0.0), 5.0, 0.0))
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
        let engine = QueryEngine::new(db);
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
        let engine = QueryEngine::new(db);
        for _ in 0..20 {
            run(&engine, &rect(0.0, 200.0, 0.0));
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 20);
        assert!(stats.p50_us > 0);
        assert!(stats.p99_us >= stats.p50_us);
        assert!(stats.candidates > 0);
        assert!(stats.match_ratio() > 0.0 && stats.match_ratio() <= 1.0);
        let line = stats.to_string();
        assert!(line.contains("p99"), "{line}");
        assert!(line.starts_with("20 queries"), "{line}");
    }

    #[test]
    fn run_batch_rejects_unterminated_literal_as_one_verdict() {
        let db = shared(5);
        let engine = QueryEngine::new(db);
        let results = engine.run_batch(
            "RETRIEVE POSITION OF OBJECT 'veh-1 AT TIME 0; RETRIEVE POSITION OF OBJECT 2 AT TIME 0",
        );
        assert_eq!(results.len(), 1, "an unsplittable script is one verdict");
        assert!(matches!(results[0], Err(QueryError::Parse(_))));
        // Quoted `;` still splits correctly (two statements, not three).
        let engine2 = QueryEngine::new(shared(5));
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
            let snap = stats.snapshot();
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
    fn every_publish_is_the_same_clone_and_shares_the_live_structure() {
        let db = shared(50);
        let engine = QueryEngine::new(db.clone());
        // A statement's clone, with no write since, shares every tree node
        // and bucket with the live database.
        let (shared, total) = db.with_read(|live| live.shared_with(&engine.snapshot()));
        assert_eq!(shared, total);
        for round in 1..=3u64 {
            let (t, arc) = (round as f64, 500.0 + round as f64);
            update(&db, round, t, arc, 1.0);
            let stmt = format!("RETRIEVE POSITION OF OBJECT {round} AT TIME {t}");
            assert_eq!(run(&engine, &stmt).as_position().unwrap().arc, arc);
        }
        // The clone is the live tree, so it answers exactly like the
        // locked database, traversal statistics included.
        let locked = db
            .with_read(|d| d.range_query(&region(0.0, 1000.0, 2.0)))
            .unwrap();
        assert_eq!(
            run(&engine, &rect(0.0, 1000.0, 2.0)).as_range(),
            Some(&locked)
        );
    }

    /// A reader that pinned a clone keeps reading it, and keeps it alive,
    /// however many writes land meanwhile.
    #[test]
    fn a_pinned_epoch_outlives_its_retirement_unchanged() {
        let db = shared(50);
        let engine = QueryEngine::new(db.clone());
        let pinned = engine.snapshot();
        let r = region(0.0, 1000.0, 2.0);
        let at_pin = pinned.range_query(&r).unwrap();
        for round in 1..=20u64 {
            for i in 0..50u64 {
                let arc = ((i * 13 + round * 29) % 1000) as f64;
                update(&db, i, round as f64, arc, 0.8);
            }
            run(&engine, "RETRIEVE POSITION OF OBJECT 7 AT TIME 0");
        }
        assert_eq!(pinned.range_query(&r).unwrap(), at_pin);
        assert_eq!(pinned.position_of(ObjectId(7), 0.0).unwrap().arc, 7.0);
        let now = run(&engine, &rect(0.0, 1000.0, 2.0));
        assert_ne!(now.as_range(), Some(&at_pin));
    }

    #[test]
    fn a_batch_reads_one_clone_under_a_live_writer() {
        use std::sync::atomic::AtomicBool;
        let db = shared(200);
        let engine = QueryEngine::new(db.clone());
        let stop = AtomicBool::new(false);
        let rounds = AtomicU64::new(0);
        std::thread::scope(|s| {
            // The writer shuffles the whole fleet along the route, so
            // consecutive rounds give different range answers.
            s.spawn(|| {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    for i in 0..200u64 {
                        let arc = ((i * 5 + round * 7) % 1000) as f64;
                        update(&db, i, round as f64 * 1e-5, arc, 0.9);
                    }
                    rounds.store(round, Ordering::Relaxed);
                }
            });
            // Same statement twice in one script: whatever state the
            // batch's clone caught, both verdicts come from it. The test
            // needs batches that a writer round overlapped (the round
            // count moved while the batch ran): it keeps going until it
            // has had enough of them — a condition on both threads, not
            // a sleep.
            const OVERLAPPED: u32 = 5;
            let stmt = "RETRIEVE OBJECTS INSIDE RECT (0, -1, 500, 1) AT TIME 5";
            let script = format!("{stmt}; {stmt}");
            let deadline = Instant::now() + Duration::from_secs(30);
            let (mut batches, mut overlapped) = (0u32, 0u32);
            // A failure is carried out of the loop so the writer is
            // always told to stop before the scope joins it.
            let mut failure = None;
            while overlapped < OVERLAPPED {
                if Instant::now() >= deadline {
                    let rounds = rounds.load(Ordering::Relaxed);
                    // Each overlap needs a batch and a round: the side
                    // that finished fewer is the one holding the test up.
                    let slow = if u64::from(batches) < rounds {
                        "the reader"
                    } else {
                        "the writer"
                    };
                    failure = Some(format!(
                        "{slow} stalled: {overlapped} of {batches} batches overlapped \
                         one of {rounds} writer rounds in 30 s"
                    ));
                    break;
                }
                let before = rounds.load(Ordering::Relaxed);
                let verdicts = engine.run_batch(&script);
                if verdicts.len() != 2 || verdicts[0].is_err() || verdicts[0] != verdicts[1] {
                    failure = Some(format!("one batch saw two states: {verdicts:?}"));
                    break;
                }
                batches += 1;
                overlapped += u32::from(rounds.load(Ordering::Relaxed) != before);
            }
            stop.store(true, Ordering::Relaxed);
            assert_eq!(failure, None);
        });
    }

    #[test]
    fn concurrent_snapshot_queries_with_live_writers() {
        let db = shared(200);
        let engine = QueryEngine::new(db.clone());
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let db = db.clone();
                s.spawn(move || {
                    for round in 1..=100u64 {
                        for i in (w * 100)..(w * 100 + 100) {
                            let arc = (i as f64 + round as f64).min(1000.0);
                            update(&db, i, round as f64 * 0.05, arc, 0.9);
                        }
                    }
                });
            }
            for _ in 0..4 {
                let engine = &engine;
                s.spawn(move || {
                    for _ in 0..100 {
                        let r = run(engine, &rect(0.0, 1000.0, 5.0));
                        assert!(r.as_range().unwrap().candidates <= 200);
                        // A clone is internally consistent: the scan
                        // baseline over the same clone agrees.
                        let snap = engine.snapshot();
                        let a = snap.range_query(&region(0.0, 400.0, 5.0)).unwrap();
                        let b = snap.range_query_scan(&region(0.0, 400.0, 5.0)).unwrap();
                        assert_eq!(a.must, b.must);
                        assert_eq!(a.may, b.may);
                    }
                });
            }
        });
        assert!(engine.stats().queries >= 400);
    }
}
