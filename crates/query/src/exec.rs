//! Query evaluation against a [`Database`].

use modb_core::{
    CoreError, Database, NearestAnswer, ObjectId, PositionAnswer, RangeAnswer, REFINEMENT_DT,
};
use modb_geom::{Point, Polygon, Rect};
use modb_index::QueryRegion;
use std::fmt;

use crate::ast::{ObjectRef, Query, RegionSpec, TimeSpec};

/// The most instants one range statement may refine each candidate at:
/// about a week of `DURING` span at the default one-minute step. A
/// longer span is refused rather than sampled for minutes or hours on
/// the session thread that runs it.
const MAX_REFINEMENT_SAMPLES: usize = 10_000;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// No moving object with this name.
    UnknownName(String),
    /// The region was geometrically invalid (degenerate polygon etc.).
    InvalidRegion(String),
    /// DBMS-level failure.
    Core(CoreError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownName(n) => write!(f, "no moving object named `{n}`"),
            ExecError::InvalidRegion(msg) => write!(f, "invalid query region: {msg}"),
            ExecError::Core(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ExecError {
    fn from(e: CoreError) -> Self {
        ExecError::Core(e)
    }
}

/// The result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A position answer with its deviation bound.
    Position(PositionAnswer),
    /// A may/must range answer.
    Range(RangeAnswer),
    /// A k-nearest answer with certain/possible ranking.
    Nearest(NearestAnswer),
}

impl QueryResult {
    /// The range answer, if this is one.
    pub fn as_range(&self) -> Option<&RangeAnswer> {
        match self {
            QueryResult::Range(r) => Some(r),
            _ => None,
        }
    }

    /// The position answer, if this is one.
    pub fn as_position(&self) -> Option<&PositionAnswer> {
        match self {
            QueryResult::Position(p) => Some(p),
            _ => None,
        }
    }

    /// The nearest answer, if this is one.
    pub fn as_nearest(&self) -> Option<&NearestAnswer> {
        match self {
            QueryResult::Nearest(n) => Some(n),
            _ => None,
        }
    }

    /// Answer equality: `==`, except that two range answers are compared
    /// by [`RangeAnswer::same_answer`] (traversal diagnostics left out).
    pub fn same_answer(&self, other: &QueryResult) -> bool {
        match (self, other) {
            (QueryResult::Range(a), QueryResult::Range(b)) => a.same_answer(b),
            _ => self == other,
        }
    }
}

fn resolve(db: &Database, obj: &ObjectRef) -> Result<ObjectId, ExecError> {
    match obj {
        ObjectRef::Id(id) => Ok(*id),
        ObjectRef::Name(name) => db
            .find_moving_by_name(name)
            .map(|o| o.id)
            .ok_or_else(|| ExecError::UnknownName(name.clone())),
    }
}

/// The query region of a range statement: its polygon over its time
/// span, which must be finite and need at most [`MAX_REFINEMENT_SAMPLES`]
/// refinement instants at [`REFINEMENT_DT`] steps.
fn build_region(region: &RegionSpec, time: TimeSpec) -> Result<QueryRegion, ExecError> {
    let polygon = match region {
        RegionSpec::Polygon(pts) => {
            Polygon::new(pts.clone()).map_err(|e| ExecError::InvalidRegion(e.to_string()))?
        }
        RegionSpec::Rect { min, max } => {
            let r = Rect::new(*min, *max);
            if r.width() <= 0.0 || r.height() <= 0.0 {
                return Err(ExecError::InvalidRegion(format!(
                    "rectangle ({}, {}) .. ({}, {}) is degenerate",
                    min.x, min.y, max.x, max.y
                )));
            }
            Polygon::rectangle(&r).map_err(|e| ExecError::InvalidRegion(e.to_string()))?
        }
    };
    let region = match time {
        TimeSpec::At(t) => QueryRegion::at_instant(polygon, t),
        TimeSpec::During(t0, t1) => QueryRegion::during(polygon, t0, t1),
    };
    if !(region.t0().is_finite() && region.t1().is_finite()) {
        return Err(ExecError::InvalidRegion(format!(
            "time {} .. {} is not finite",
            region.t0(),
            region.t1()
        )));
    }
    if region.refinement_samples(REFINEMENT_DT) > MAX_REFINEMENT_SAMPLES {
        return Err(ExecError::InvalidRegion(format!(
            "time span {} .. {} needs more than {MAX_REFINEMENT_SAMPLES} refinement \
             samples at {REFINEMENT_DT}-minute steps",
            region.t0(),
            region.t1()
        )));
    }
    Ok(region)
}

/// Executes a parsed query against the database.
///
/// # Errors
///
/// [`ExecError`] for unknown names, invalid regions, or DBMS failures.
pub fn execute(db: &Database, query: &Query) -> Result<QueryResult, ExecError> {
    execute_lagging(db, query, 0.0)
}

/// [`execute`] against a copy `lag` minutes behind the truth (see
/// [`run_lagging`]).
fn execute_lagging(db: &Database, query: &Query, lag: f64) -> Result<QueryResult, ExecError> {
    if !(lag.is_finite() && lag >= 0.0) {
        return Err(CoreError::InvalidField("lag", lag).into());
    }
    match query {
        Query::Position { object, at } => {
            let id = resolve(db, object)?;
            Ok(QueryResult::Position(db.position_of_lagging(id, *at, lag)?))
        }
        Query::Range { region, time } => {
            let region = build_region(region, *time)?;
            Ok(QueryResult::Range(db.range_query_lagging(&region, lag)?))
        }
        Query::WithinPoint { center, radius, at } => {
            let region = modb_index::within_radius(Point::new(center.x, center.y), *radius, *at)
                .ok_or(CoreError::InvalidField("radius", *radius))?;
            Ok(QueryResult::Range(db.range_query_lagging(&region, lag)?))
        }
        Query::Nearest { k, center, at } => {
            let mut answer = db.nearest(Point::new(center.x, center.y), *k, *at)?;
            let slack = 2.0 * db.speed_cap() * lag;
            if slack > 0.0 {
                for n in answer.ranked.iter_mut().chain(&mut answer.contenders) {
                    n.bound += slack;
                    n.certain = false;
                }
            }
            Ok(QueryResult::Nearest(answer))
        }
        Query::WithinObject { object, radius, at } => {
            let id = resolve(db, object)?;
            Ok(QueryResult::Range(db.within_distance_of_object_lagging(
                id, *radius, *at, lag,
            )?))
        }
    }
}

/// Parses and executes a query string in one step.
///
/// # Errors
///
/// [`crate::QueryError::Parse`] for text that does not parse,
/// [`crate::QueryError::Exec`] for evaluation failures.
pub fn run(db: &Database, src: &str) -> Result<QueryResult, crate::QueryError> {
    run_lagging(db, src, 0.0)
}

/// [`run`] against a copy that may trail the truth by `lag` minutes (a
/// follower's lag clock), every answer widened by what the objects may
/// have moved since (DESIGN §15):
///
/// - range statements — `INSIDE`, `WITHIN … OF POINT`, `WITHIN … OF
///   OBJECT` — refine each candidate against its uncertainty widened by
///   its own `2·max_speed·lag` ([`Database::range_query_lagging`]), so
///   their `may` set can grow and their `must` set shrink;
/// - a position answer grows its deviation bound and both ends of its
///   uncertainty interval, kept on the route, by the fleet's
///   `2·speed_cap·lag` ([`Database::speed_cap`] of this copy;
///   [`Database::position_of_lagging`]), and a nearest answer grows each
///   neighbour's bound by it and drops certainty.
///
/// `lag == 0` is [`run`], bit for bit.
///
/// # Errors
///
/// As for [`run`], and a negative or non-finite `lag`.
pub fn run_lagging(db: &Database, src: &str, lag: f64) -> Result<QueryResult, crate::QueryError> {
    let query = crate::parse(src).map_err(crate::QueryError::Parse)?;
    execute_lagging(db, &query, lag).map_err(crate::QueryError::Exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modb_core::{
        DatabaseConfig, MovingObject, PolicyDescriptor, PositionAttribute, StationaryObject,
    };
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};

    fn db() -> Database {
        let route = Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap();
        let network = RouteNetwork::from_routes([route]).unwrap();
        let mut db = Database::new(network, DatabaseConfig::default());
        for (i, arc) in [(1u64, 10.0), (2, 30.0), (3, 60.0)] {
            db.register_moving(MovingObject {
                id: ObjectId(i),
                name: if i == 2 {
                    "ABT312".into()
                } else {
                    format!("veh-{i}")
                },
                attr: PositionAttribute {
                    start_time: 0.0,
                    route: RouteId(1),
                    start_position: Point::new(arc, 0.0),
                    start_arc: arc,
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
        db.insert_stationary(StationaryObject::new(
            ObjectId(100),
            "depot",
            Point::new(12.0, 0.0),
        ))
        .unwrap();
        db
    }

    #[test]
    fn position_query_by_id_and_name() {
        let d = db();
        let r = run(&d, "RETRIEVE POSITION OF OBJECT 1 AT TIME 5").unwrap();
        let p = r.as_position().unwrap();
        assert_eq!(p.arc, 15.0);
        assert!(p.bound > 0.0);

        let r = run(&d, "RETRIEVE POSITION OF OBJECT 'ABT312' AT TIME 0").unwrap();
        assert_eq!(r.as_position().unwrap().arc, 30.0);
    }

    #[test]
    fn range_query_rect_and_polygon() {
        let d = db();
        let r = run(&d, "RETRIEVE OBJECTS INSIDE RECT (0, -1, 40, 1) AT TIME 0").unwrap();
        let a = r.as_range().unwrap();
        let mut all = a.all();
        all.sort_unstable();
        assert_eq!(all, vec![ObjectId(1), ObjectId(2)]);

        let r = run(
            &d,
            "RETRIEVE OBJECTS INSIDE POLYGON ((55,-2), (70,-2), (70,2), (55,2)) AT TIME 0",
        )
        .unwrap();
        assert_eq!(r.as_range().unwrap().all(), vec![ObjectId(3)]);
    }

    #[test]
    fn during_query() {
        let d = db();
        // Object 1 (starts at 10, speed 1) passes through [18, 22] between
        // t=8 and t=12 — caught by a DURING query over [0, 15].
        let r = run(
            &d,
            "RETRIEVE OBJECTS INSIDE RECT (18, -1, 22, 1) DURING 0 TO 15",
        )
        .unwrap();
        assert!(r.as_range().unwrap().all().contains(&ObjectId(1)));
    }

    #[test]
    fn within_queries() {
        let d = db();
        let r = run(&d, "RETRIEVE OBJECTS WITHIN 5 OF POINT (12, 0) AT TIME 0").unwrap();
        assert!(r.as_range().unwrap().all().contains(&ObjectId(1)));
        let r = run(
            &d,
            "RETRIEVE OBJECTS WITHIN 25 OF OBJECT 'ABT312' AT TIME 0",
        )
        .unwrap();
        let all = r.as_range().unwrap().all();
        assert!(all.contains(&ObjectId(1)));
        assert!(!all.contains(&ObjectId(2)), "anchor excluded");
    }

    #[test]
    fn nearest_query() {
        let d = db();
        // At t = 0 positions are 10, 30, 60; nearest 2 to the origin are
        // objects 1 and 2 in that order.
        let r = run(&d, "RETRIEVE 2 NEAREST OBJECTS TO POINT (0, 0) AT TIME 0").unwrap();
        let n = r.as_nearest().unwrap();
        assert_eq!(n.ranked.len(), 2);
        assert_eq!(n.ranked[0].id, ObjectId(1));
        assert_eq!(n.ranked[1].id, ObjectId(2));
        assert!(n.ranked[0].distance < n.ranked[1].distance);
        // k must be a positive integer.
        assert!(run(&d, "RETRIEVE 0 NEAREST OBJECTS TO POINT (0,0) AT TIME 0").is_err());
        assert!(run(&d, "RETRIEVE 1.5 NEAREST OBJECTS TO POINT (0,0) AT TIME 0").is_err());
    }

    #[test]
    fn error_paths() {
        let d = db();
        assert!(matches!(
            run(&d, "RETRIEVE POSITION OF OBJECT 'ghost' AT TIME 0"),
            Err(crate::QueryError::Exec(ExecError::UnknownName(_)))
        ));
        assert!(matches!(
            run(&d, "RETRIEVE POSITION OF OBJECT 99 AT TIME 0"),
            Err(crate::QueryError::Exec(ExecError::Core(
                CoreError::UnknownObject(_)
            )))
        ));
        assert!(matches!(
            run(&d, "RETRIEVE OBJECTS INSIDE RECT (5, 5, 5, 9) AT TIME 0"),
            Err(crate::QueryError::Exec(ExecError::InvalidRegion(_)))
        ));
        assert!(matches!(
            run(&d, "garbage"),
            Err(crate::QueryError::Parse(_))
        ));
    }

    /// A time bound the lexer reads as infinite, or a span too long to
    /// sample, is refused before any refinement runs; a week still runs.
    #[test]
    fn unsampleable_time_spans_are_refused() {
        let d = db();
        for stmt in [
            "RETRIEVE OBJECTS INSIDE RECT (0, -1, 40, 1) DURING 0 TO 1e400",
            "RETRIEVE OBJECTS INSIDE RECT (0, -1, 40, 1) AT TIME 1e400",
            "RETRIEVE OBJECTS INSIDE RECT (0, -1, 40, 1) DURING 0 TO 200000000",
        ] {
            assert!(
                matches!(
                    run(&d, stmt),
                    Err(crate::QueryError::Exec(ExecError::InvalidRegion(_)))
                ),
                "{stmt}"
            );
        }
        let week = "RETRIEVE OBJECTS INSIDE RECT (0, -1, 40, 1) DURING 0 TO 9999";
        assert!(run(&d, week).is_ok());
    }

    /// Zero lag leaves every answer bit-identical to `run` (the
    /// equal-LSN parity guarantee); a positive lag only ever enlarges
    /// uncertainty — position and nearest bounds by the copy's
    /// `2·speed_cap·lag`.
    #[test]
    fn widening_is_identity_at_zero_and_containment_above() {
        let d = db();
        let (lag, slack) = (0.5, 2.0 * 1.5 * 0.5);
        for stmt in [
            "RETRIEVE POSITION OF OBJECT 1 AT TIME 5",
            "RETRIEVE OBJECTS INSIDE RECT (0, -1, 40, 1) AT TIME 5",
            "RETRIEVE 2 NEAREST OBJECTS TO POINT (0, 0) AT TIME 0",
        ] {
            let before = run(&d, stmt).unwrap();
            assert_eq!(run_lagging(&d, stmt, 0.0).unwrap(), before);
            match (run_lagging(&d, stmt, lag).unwrap(), before) {
                (QueryResult::Position(w), QueryResult::Position(b)) => {
                    assert_eq!((w.position, w.arc), (b.position, b.arc));
                    assert_eq!(w.bound, b.bound + slack);
                    assert_eq!(w.interval, (b.interval.0 - slack, b.interval.1 + slack));
                }
                (QueryResult::Range(w), QueryResult::Range(b)) => {
                    assert!(w.must.iter().all(|id| b.must.contains(id)));
                    assert!(b.all().iter().all(|id| w.all().contains(id)));
                }
                (QueryResult::Nearest(w), QueryResult::Nearest(b)) => {
                    assert_eq!(w.ranked.len(), 2);
                    assert_eq!(w.contenders.len(), b.contenders.len());
                    let pairs = w.ranked.iter().zip(&b.ranked);
                    for (w, b) in pairs.chain(w.contenders.iter().zip(&b.contenders)) {
                        assert_eq!((w.id, w.distance), (b.id, b.distance));
                        assert_eq!(w.bound, b.bound + slack);
                        assert!(!w.certain);
                    }
                }
                _ => panic!("verdict kind changed under widening"),
            }
        }
        for lag in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                run_lagging(&d, "RETRIEVE POSITION OF OBJECT 1 AT TIME 5", lag),
                Err(crate::QueryError::Exec(ExecError::Core(
                    CoreError::InvalidField("lag", _)
                )))
            ));
        }
    }

    /// A lagging position answer near either end of its route keeps its
    /// widened interval on the route, and its path is that interval's:
    /// it runs from `point_at` of one end to `point_at` of the other.
    #[test]
    fn a_lagging_position_stays_on_its_route() {
        let d = db();
        let route = d.network().get(RouteId(1)).unwrap();
        let slack = 2.0 * 1.5 * 4.0;
        // Object 1 starts at arc 10 and object 3 reaches arc 98 at t = 38.
        for stmt in [
            "RETRIEVE POSITION OF OBJECT 1 AT TIME 0",
            "RETRIEVE POSITION OF OBJECT 3 AT TIME 38",
        ] {
            let plain = run(&d, stmt).unwrap();
            let plain = plain.as_position().unwrap();
            let answer = run_lagging(&d, stmt, 4.0).unwrap();
            let w = answer.as_position().unwrap();
            assert_eq!(w.bound, plain.bound + slack);
            let (lo, hi) = (plain.interval.0 - slack, plain.interval.1 + slack);
            assert!(lo < 0.0 || hi > route.length(), "{stmt}: passes an end");
            assert_eq!(w.interval, (lo.max(0.0), hi.min(route.length())));
            assert_eq!(w.interval_path.first(), Some(&route.point_at(w.interval.0)));
            assert_eq!(w.interval_path.last(), Some(&route.point_at(w.interval.1)));
        }
    }

    #[test]
    fn query_matches_api_answers() {
        let d = db();
        let via_text = run(&d, "RETRIEVE OBJECTS INSIDE RECT (0, -1, 100, 1) AT TIME 2").unwrap();
        let region = QueryRegion::at_instant(
            Polygon::rectangle(&Rect::new(Point::new(0.0, -1.0), Point::new(100.0, 1.0))).unwrap(),
            2.0,
        );
        let via_api = d.range_query(&region).unwrap();
        assert_eq!(via_text.as_range().unwrap(), &via_api);
    }
}
