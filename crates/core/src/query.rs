//! Query answers: position-with-bound and may/must range results.

use modb_geom::Point;
use modb_index::SearchStats;

use crate::object::ObjectId;

/// Answer to "what is the current position of m?" (§3): the database
/// position plus the paper's error bound and uncertainty interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionAnswer {
    /// The database position resolved to coordinates.
    pub position: Point,
    /// The database position in arc coordinates on the object's route.
    pub arc: f64,
    /// Bound `B` on the deviation: "the actual position of m may deviate
    /// from the position returned by the DBMS by at most B".
    pub bound: f64,
    /// The uncertainty interval `[l, u]` in arc coordinates (§4.1.1).
    pub interval: (f64, f64),
    /// The uncertainty interval as route geometry (endpoints plus interior
    /// route vertices).
    pub interval_path: Vec<Point>,
}

/// How a candidate relates to the query region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Containment {
    /// The uncertainty interval lies entirely inside G (Theorem 6): the
    /// object is certainly in the region.
    Must,
    /// The interval intersects G but also leaves it (Theorem 5): the
    /// object may or may not be in the region.
    May,
}

/// Answer to a range query "retrieve the objects inside polygon G at time
/// t₀" (§4.2): "the set S of objects that may be in G, together with a
/// subset of S consisting of the objects that must be in G".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RangeAnswer {
    /// Objects certainly inside G.
    pub must: Vec<ObjectId>,
    /// Objects possibly (but not certainly) inside G. Disjoint from
    /// `must`; the paper's set S is `must ∪ may`.
    pub may: Vec<ObjectId>,
    /// Number of candidates the index filter produced (for selectivity
    /// accounting).
    pub candidates: usize,
    /// R\*-tree search statistics (zeroed for linear-scan evaluation).
    pub stats: SearchStats,
}

impl RangeAnswer {
    /// The paper's answer set S: everything that may be in G (must ⊆ S).
    pub fn all(&self) -> Vec<ObjectId> {
        let mut s = self.must.clone();
        s.extend(&self.may);
        s
    }

    /// Sorts both id lists (answers are set-valued; sorting makes them
    /// comparable in tests and stable in reports).
    pub fn normalize(&mut self) {
        self.must.sort_unstable();
        self.may.sort_unstable();
    }

    /// Answer equality: `must`, `may` and `candidates` agree. Unlike
    /// `==` this leaves [`RangeAnswer::stats`] out — how many nodes a
    /// traversal touched depends on the shape of the tree that served it
    /// (a delta-maintained snapshot and a fresh clone of the same state
    /// can differ by a node), which is a diagnostic, not part of the
    /// answer.
    pub fn same_answer(&self, other: &RangeAnswer) -> bool {
        self.must == other.must && self.may == other.may && self.candidates == other.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_answer_all_and_normalize() {
        let mut a = RangeAnswer {
            must: vec![ObjectId(3), ObjectId(1)],
            may: vec![ObjectId(2)],
            candidates: 3,
            stats: SearchStats::default(),
        };
        a.normalize();
        assert_eq!(a.must, vec![ObjectId(1), ObjectId(3)]);
        let all = a.all();
        assert_eq!(all.len(), 3);
        assert!(all.contains(&ObjectId(2)));
    }

    #[test]
    fn same_answer_ignores_traversal_stats_only() {
        let a = RangeAnswer {
            must: vec![ObjectId(1)],
            may: vec![ObjectId(2)],
            candidates: 3,
            stats: SearchStats::default(),
        };
        let mut b = a.clone();
        b.stats.nodes_visited += 1;
        assert_ne!(a, b);
        assert!(a.same_answer(&b));
        let edits: [fn(&mut RangeAnswer); 3] =
            [|r| r.must.clear(), |r| r.may.clear(), |r| r.candidates += 1];
        for edit in edits {
            let mut c = a.clone();
            edit(&mut c);
            assert!(!a.same_answer(&c), "{c:?}");
        }
    }
}
