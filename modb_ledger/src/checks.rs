//! The correctness checks a run makes on the answers it was served.

use crate::api::{Database, ObjectId, Polygon, RangeAnswer};
use crate::fleet::{Fleet, TICK};
use crate::traffic::Observed;

/// Every observed range answer must equal `Database::range_query_scan`
/// on the same (quiescent) state: same must set, same may set. Returns
/// the number of answers that differ.
pub fn differs_from_scan(db: &Database, fleet: &Fleet, observed: &[Observed]) -> usize {
    observed
        .iter()
        .filter(|o| {
            let region = fleet.script[o.stmt]
                .region(o.now)
                .expect("observed statements are range statements");
            match db.range_query_scan(&region) {
                Ok(scan) => scan.must != o.answer.must || scan.may != o.answer.may,
                Err(_) => true,
            }
        })
        .count()
}

/// Theorems 5–6 against ground truth: may ∪ must ⊇ {vehicles truly
/// inside} ⊇ must, for answers a follower served at its own staleness.
/// Returns the number of answers that break the containment.
///
/// A vehicle is skipped when the trace holds an update of it between
/// the reader's clock and the later of the query time and the newest
/// update on the wire at the answer: whether the follower had that update
/// is a race, and the bound the old one implies ends when the next is due. The
/// engine ticks once a second, so a vehicle can be one tick of travel
/// past its bound before it notices; that margin is allowed at the
/// region's edge.
pub fn breaks_containment(fleet: &Fleet, observed: &[Observed]) -> usize {
    observed
        .iter()
        .filter(|o| {
            let stmt = &fleet.script[o.stmt];
            let (_, t) = stmt.render(o.now);
            let polygon = stmt.polygon.as_ref().expect("range statement");
            let from = fleet.updates.partition_point(|u| u.time <= o.now);
            let to = fleet
                .updates
                .partition_point(|u| u.time <= t.max(o.sent_after));
            let mut in_flight: Vec<u32> = fleet.updates[from..to].iter().map(|u| u.id).collect();
            in_flight.sort_unstable();
            !contained(fleet, polygon, t, &o.answer, &in_flight)
        })
        .count()
}

fn contained(
    fleet: &Fleet,
    polygon: &Polygon,
    t: f64,
    answer: &RangeAnswer,
    in_flight: &[u32],
) -> bool {
    // A follower's widening appends the must set to the may set unsorted.
    let mut may = answer.may.clone();
    may.sort_unstable();
    (0..fleet.rides.len()).all(|id| {
        if in_flight.binary_search(&(id as u32)).is_ok() {
            return true;
        }
        let ride = &fleet.rides[id];
        let margin = 1.5 * fleet.max_speeds[ride.curve as usize] * TICK;
        let p = fleet.true_position(id, t);
        let inside = polygon.contains_point(p);
        let near_edge = || polygon.edges().any(|e| e.distance_to_point(p) <= margin);
        let object = ObjectId(id as u64);
        let must = answer.must.binary_search(&object).is_ok();
        if must && !inside {
            return near_edge();
        }
        if inside && !must && may.binary_search(&object).is_err() {
            return near_edge();
        }
        true
    })
}
