//! A 3-D R\*-tree built from scratch.
//!
//! The paper (§4.2) calls for "a 3-dimensional spatial index, e.g. an
//! R⁺-tree" over (x, y, t) time-space. This is an R\*-flavoured R-tree:
//! choose-subtree minimises overlap enlargement at the leaf level and
//! volume enlargement above it, and node splits use the R\* axis/
//! distribution heuristics (minimum margin axis, minimum overlap
//! distribution). Deletion condenses the tree and reinserts orphans.
//!
//! The tree is deliberately self-contained (no external spatial crates)
//! and instrumented: searches can report how many nodes they touched,
//! which powers the paper's sublinearity experiment (F5 in DESIGN.md).
//!
//! **A copy is a root.** Nodes live behind `Arc`s, so cloning a tree
//! copies one pointer and the clone shares every node. A write copies
//! the nodes on the one path it changes, and only those a clone still
//! holds (`Arc::make_mut`); a tree nobody else holds mutates in place.
//! `remove` and `update` first *locate* their entry read-only and then
//! descend that one path, so looking into a subtree that turns out not
//! to hold the entry — or failing to find it at all — copies nothing.
//!
//! **A node keeps at most one spare slot.** A node grows one slot at a
//! time, and both halves of a split and a node that lost an entry give
//! back what they no longer use, so the slots a fleet's tree allocates
//! are its entries plus at most one per node — not the half-empty
//! doubled buffers `Vec::push` would leave in every split leaf.

use std::collections::HashSet;
use std::sync::Arc;

use modb_geom::Aabb3;

/// Maximum entries per node (R\*-tree `M`).
const MAX_ENTRIES: usize = 16;
/// Minimum entries per node after a split (R\*-tree `m ≈ 40 % · M`).
const MIN_ENTRIES: usize = 6;

/// Statistics from a single search, for the sublinearity experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Internal + leaf nodes visited.
    pub nodes_visited: usize,
    /// Leaf entries whose boxes were tested.
    pub entries_tested: usize,
    /// Entries that matched the query box.
    pub matches: usize,
}

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<(Aabb3, T)>),
    Internal(Vec<(Aabb3, Arc<Node<T>>)>),
}

impl<T> Node<T> {
    fn bbox(&self) -> Aabb3 {
        match self {
            Node::Leaf(es) => es.iter().fold(Aabb3::empty(), |a, (b, _)| a.union(b)),
            Node::Internal(cs) => cs.iter().fold(Aabb3::empty(), |a, (b, _)| a.union(b)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Internal(cs) => cs.len(),
        }
    }
}

/// An R\*-tree mapping 3-D boxes to values of type `T`.
///
/// `T` is typically a small id (`u64`) or a shared pointer; duplicate
/// values under different boxes are allowed. Cloning is O(1): the clone
/// shares every node until one side writes (see the module docs).
///
/// ```
/// use modb_geom::Aabb3;
/// use modb_index::RStarTree;
/// let mut tree = RStarTree::new();
/// tree.insert(Aabb3::new([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), 7u64);
/// tree.insert(Aabb3::new([5.0, 5.0, 5.0], [6.0, 6.0, 6.0]), 8u64);
/// let hits = tree.query_intersecting(&Aabb3::new([0.5; 3], [0.6; 3]));
/// assert_eq!(hits, vec![7]);
/// ```
#[derive(Debug, Clone)]
pub struct RStarTree<T> {
    root: Arc<Node<T>>,
    size: usize,
}

impl<T: Clone + PartialEq> Default for RStarTree<T> {
    fn default() -> Self {
        RStarTree::new()
    }
}

impl<T: Clone + PartialEq> RStarTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RStarTree {
            root: Arc::new(Node::Leaf(Vec::new())),
            size: 0,
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Bounding box of everything in the tree (empty box when empty).
    pub fn bbox(&self) -> Aabb3 {
        self.root.bbox()
    }

    /// Tree height (a single leaf level is height 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &*self.root;
        while let Node::Internal(cs) = node {
            h += 1;
            node = &cs[0].1;
        }
        h
    }

    /// Total node count (for space accounting in experiments).
    pub fn node_count(&self) -> usize {
        fn count<T>(n: &Node<T>) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Internal(cs) => 1 + cs.iter().map(|(_, c)| count(c)).sum::<usize>(),
            }
        }
        count(&self.root)
    }

    /// Inserts a (box, value) entry. Degenerate (zero-volume) boxes are
    /// fine — a query region at a single time instant is one.
    pub fn insert(&mut self, bbox: Aabb3, value: T) {
        debug_assert!(!bbox.is_empty(), "cannot index an empty box");
        let split = Self::insert_rec(Arc::make_mut(&mut self.root), bbox, value);
        if let Some((left_box, right)) = split {
            // Root split: grow the tree by one level.
            let old_root = Arc::clone(&self.root);
            self.root = Arc::new(Node::Internal(vec![
                (left_box, old_root),
                (right.bbox(), Arc::new(right)),
            ]));
        }
        self.size += 1;
    }

    /// Recursive insert down the one chosen path (each node on it is
    /// copied first if a clone shares it); returns
    /// `Some((this_node_new_bbox, sibling))` when this node split.
    fn insert_rec(node: &mut Node<T>, bbox: Aabb3, value: T) -> Option<(Aabb3, Node<T>)> {
        match node {
            Node::Leaf(entries) => {
                push_exact(entries, (bbox, value));
                if entries.len() > MAX_ENTRIES {
                    let (left, right) = split_leaf(std::mem::take(entries));
                    *entries = left;
                    let this_box = entries.iter().fold(Aabb3::empty(), |a, (b, _)| a.union(b));
                    return Some((this_box, Node::Leaf(right)));
                }
                None
            }
            Node::Internal(children) => {
                let at_leaf_level = matches!(&*children[0].1, Node::Leaf(_));
                let idx = choose_subtree(children, &bbox, at_leaf_level);
                let split = Self::insert_rec(Arc::make_mut(&mut children[idx].1), bbox, value);
                match split {
                    None => {
                        children[idx].0 = children[idx].0.union(&bbox);
                        None
                    }
                    Some((new_child_box, sibling)) => {
                        children[idx].0 = new_child_box;
                        push_exact(children, (sibling.bbox(), Arc::new(sibling)));
                        if children.len() > MAX_ENTRIES {
                            let (left, right) = split_internal(std::mem::take(children));
                            *children = left;
                            let this_box =
                                children.iter().fold(Aabb3::empty(), |a, (b, _)| a.union(b));
                            return Some((this_box, Node::Internal(right)));
                        }
                        None
                    }
                }
            }
        }
    }

    /// Removes one entry matching `(bbox, value)` exactly. Returns `true`
    /// when an entry was removed; `false` leaves the tree — and every node
    /// it shares with a clone — untouched.
    pub fn remove(&mut self, bbox: &Aabb3, value: &T) -> bool {
        let mut path = Vec::with_capacity(8);
        let found = Self::locate(&self.root, bbox, value, bbox, &mut path).is_some();
        if found {
            self.remove_located(&path);
        }
        found
    }

    /// Finds one `(bbox, value)` entry without writing anything. On
    /// success `path` holds the child index taken at each internal node,
    /// root first, then the entry's position in its leaf, and the result
    /// says whether every node box on that path contains `also` too.
    fn locate(
        node: &Node<T>,
        bbox: &Aabb3,
        value: &T,
        also: &Aabb3,
        path: &mut Vec<usize>,
    ) -> Option<bool> {
        match node {
            Node::Leaf(entries) => {
                let pos = entries.iter().position(|(b, v)| b == bbox && v == value)?;
                path.push(pos);
                Some(true)
            }
            Node::Internal(children) => {
                for (i, (cb, child)) in children.iter().enumerate() {
                    // A node's box is the union of its descendants', so any
                    // ancestor of the exact entry *contains* its box —
                    // descending merely intersecting children would search
                    // every overlapping subtree.
                    if cb.contains(bbox) {
                        path.push(i);
                        if let Some(fits) = Self::locate(child, bbox, value, also, path) {
                            return Some(fits && cb.contains(also));
                        }
                        path.pop();
                    }
                }
                None
            }
        }
    }

    /// Removes the entry a [`RStarTree::locate`] path leads to, condenses
    /// the tree and reinserts the orphans.
    fn remove_located(&mut self, path: &[usize]) {
        let mut orphans: Vec<(Aabb3, T)> = Vec::new();
        Self::remove_rec(Arc::make_mut(&mut self.root), path, &mut orphans);
        self.size -= 1;
        // Collapse a root with a single internal child.
        while let Node::Internal(cs) = &*self.root {
            if cs.len() != 1 {
                break;
            }
            self.root = Arc::clone(&cs[0].1);
        }
        // Reinsert entries from condensed nodes.
        let n_orphans = orphans.len();
        for (b, v) in orphans {
            self.insert(b, v);
        }
        self.size -= n_orphans; // insert() counted them again
    }

    /// Recursive delete along `path` with condensation: underfull nodes
    /// dissolve into `orphans`.
    fn remove_rec(node: &mut Node<T>, path: &[usize], orphans: &mut Vec<(Aabb3, T)>) {
        let (&i, rest) = path.split_first().expect("a located path ends in a leaf");
        match node {
            Node::Leaf(entries) => {
                entries.swap_remove(i);
                trim(entries);
            }
            Node::Internal(children) => {
                Self::remove_rec(Arc::make_mut(&mut children[i].1), rest, orphans);
                if children[i].1.len() < MIN_ENTRIES {
                    // Condense: dissolve the underfull child.
                    let (_, child) = children.swap_remove(i);
                    trim(children);
                    collect_entries(child, orphans);
                } else {
                    children[i].0 = children[i].1.bbox();
                }
            }
        }
    }

    /// Replaces one `(old, value)` entry with `(new, replacement)`. When
    /// `new` fits inside every node box on the entry's path, the entry is
    /// rewritten in place — a single descent with no condensation, no
    /// split, and no ancestor-box updates, which is the common case for
    /// the §4.2 maintenance step (an object's refreshed o-plane largely
    /// overlaps its old one). Otherwise the entry is removed along that
    /// same path and the replacement inserted. Returns `false` (and
    /// changes and copies nothing) when no `(old, value)` entry exists.
    ///
    /// Node boxes are left as-is on the in-place path, so they may cover
    /// the removed `old` box a while longer — bounding boxes stay valid
    /// covers, queries just prune marginally less until the region is
    /// next restructured.
    pub fn update(&mut self, old: &Aabb3, value: &T, new: Aabb3, replacement: T) -> bool {
        let mut path = Vec::with_capacity(8);
        let Some(fits) = Self::locate(&self.root, old, value, &new, &mut path) else {
            return false;
        };
        if !fits {
            self.remove_located(&path);
            self.insert(new, replacement);
            return true;
        }
        let (&pos, descent) = path.split_last().expect("a located path ends in a leaf");
        let mut node = Arc::make_mut(&mut self.root);
        for &i in descent {
            let Node::Internal(children) = node else {
                unreachable!("a located path descends internal nodes")
            };
            node = Arc::make_mut(&mut children[i].1);
        }
        let Node::Leaf(entries) = node else {
            unreachable!("a located path ends in a leaf")
        };
        entries[pos] = (new, replacement);
        true
    }

    /// `(shared, total)`: how many of this tree's nodes `other` holds
    /// too, out of how many it has — the probe the sharing tests count
    /// with.
    #[doc(hidden)]
    pub fn shared_nodes_with(&self, other: &Self) -> (usize, usize) {
        fn walk<T>(node: &Arc<Node<T>>, visit: &mut impl FnMut(*const Node<T>)) {
            visit(Arc::as_ptr(node));
            if let Node::Internal(children) = &**node {
                children.iter().for_each(|(_, child)| walk(child, visit));
            }
        }
        let mut theirs = HashSet::new();
        walk(&other.root, &mut |node| {
            theirs.insert(node);
        });
        let (mut shared, mut total) = (0, 0);
        walk(&self.root, &mut |node| {
            shared += usize::from(theirs.contains(&node));
            total += 1;
        });
        (shared, total)
    }

    /// `(slots, used)`: how many entry slots the tree's nodes have
    /// allocated, and how many of them hold an entry or a child — the
    /// probe the footprint tests count with.
    #[doc(hidden)]
    pub fn node_slots(&self) -> (usize, usize) {
        fn walk<T>(node: &Node<T>, slots: &mut (usize, usize)) {
            match node {
                Node::Leaf(es) => {
                    slots.0 += es.capacity();
                    slots.1 += es.len();
                }
                Node::Internal(cs) => {
                    slots.0 += cs.capacity();
                    slots.1 += cs.len();
                    cs.iter().for_each(|(_, child)| walk(child, slots));
                }
            }
        }
        let mut slots = (0, 0);
        walk(&self.root, &mut slots);
        slots
    }

    /// Visits every `(box, value)` entry in the leaves — the probe the
    /// filing tests walk the tree with.
    #[doc(hidden)]
    pub fn for_each_entry(&self, mut f: impl FnMut(&Aabb3, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(&Aabb3, &T)) {
            match node {
                Node::Leaf(es) => es.iter().for_each(|(b, v)| f(b, v)),
                Node::Internal(cs) => cs.iter().for_each(|(_, child)| walk(child, f)),
            }
        }
        walk(&self.root, &mut f);
    }

    /// All values whose boxes intersect `query` (duplicates possible when
    /// one value was inserted under several intersecting boxes).
    pub fn query_intersecting(&self, query: &Aabb3) -> Vec<T> {
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        Self::search_rec(&self.root, query, &mut |v| out.push(v.clone()), &mut stats);
        out
    }

    /// Visits every value whose box intersects `query` without allocating
    /// a result vector, and returns the search statistics.
    pub fn for_each_with_stats<F: FnMut(&T)>(&self, query: &Aabb3, mut f: F) -> SearchStats {
        let mut stats = SearchStats::default();
        Self::search_rec(&self.root, query, &mut f, &mut stats);
        stats
    }

    fn search_rec<F: FnMut(&T)>(node: &Node<T>, query: &Aabb3, f: &mut F, stats: &mut SearchStats) {
        stats.nodes_visited += 1;
        match node {
            Node::Leaf(entries) => {
                for (b, v) in entries {
                    stats.entries_tested += 1;
                    if b.intersects(query) {
                        stats.matches += 1;
                        f(v);
                    }
                }
            }
            Node::Internal(children) => {
                for (b, child) in children {
                    if b.intersects(query) {
                        Self::search_rec(child, query, f, stats);
                    }
                }
            }
        }
    }

    /// Bulk-loads entries with the Sort-Tile-Recursive (STR) packing
    /// algorithm — much faster and better-packed than repeated inserts for
    /// an initial fleet load.
    pub fn bulk_load(mut entries: Vec<(Aabb3, T)>) -> Self {
        let size = entries.len();
        if size == 0 {
            return RStarTree::new();
        }
        // STR: sort by x-center, slice into vertical slabs; within each,
        // sort by y-center, slice; within each, sort by t-center and pack
        // leaves of MAX_ENTRIES.
        let n_leaves = size.div_ceil(MAX_ENTRIES);
        let s = (n_leaves as f64).powf(1.0 / 3.0).ceil() as usize;
        let slab_x = s * s * MAX_ENTRIES;
        let slab_y = s * MAX_ENTRIES;
        entries.sort_by(|a, b| {
            a.0.center()[0]
                .partial_cmp(&b.0.center()[0])
                .expect("finite centers")
        });
        let mut leaves: Vec<Node<T>> = Vec::with_capacity(n_leaves);
        for xs in entries.chunks_mut(slab_x.max(1)) {
            xs.sort_by(|a, b| {
                a.0.center()[1]
                    .partial_cmp(&b.0.center()[1])
                    .expect("finite centers")
            });
            for ys in xs.chunks_mut(slab_y.max(1)) {
                ys.sort_by(|a, b| {
                    a.0.center()[2]
                        .partial_cmp(&b.0.center()[2])
                        .expect("finite centers")
                });
                for chunk in ys.chunks(MAX_ENTRIES) {
                    leaves.push(Node::Leaf(chunk.to_vec()));
                }
            }
        }
        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next: Vec<Node<T>> = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            let mut batch: Vec<(Aabb3, Arc<Node<T>>)> = Vec::with_capacity(MAX_ENTRIES);
            for node in level {
                batch.push((node.bbox(), Arc::new(node)));
                if batch.len() == MAX_ENTRIES {
                    next.push(Node::Internal(std::mem::take(&mut batch)));
                }
            }
            if !batch.is_empty() {
                batch.shrink_to_fit();
                next.push(Node::Internal(batch));
            }
            level = next;
        }
        RStarTree {
            root: Arc::new(level.pop().expect("at least one node")),
            size,
        }
    }
}

/// Moves a dissolved subtree's entries into `out`; a node a clone still
/// holds is copied instead (the clone keeps its own).
fn collect_entries<T: Clone>(node: Arc<Node<T>>, out: &mut Vec<(Aabb3, T)>) {
    match Arc::try_unwrap(node).unwrap_or_else(|shared| (*shared).clone()) {
        Node::Leaf(es) => out.extend(es),
        Node::Internal(cs) => {
            for (_, c) in cs {
                collect_entries(c, out);
            }
        }
    }
}

/// R\* choose-subtree: at the level above leaves minimise overlap
/// enlargement (ties: volume enlargement, then volume); higher up minimise
/// volume enlargement (ties: volume).
fn choose_subtree<T>(
    children: &[(Aabb3, Arc<Node<T>>)],
    bbox: &Aabb3,
    at_leaf_level: bool,
) -> usize {
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, (cb, _)) in children.iter().enumerate() {
        let enlarged = cb.union(bbox);
        let vol_enl = enlarged.volume() - cb.volume();
        let key = if at_leaf_level {
            let overlap_before: f64 = children
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (ob, _))| cb.intersection_volume(ob))
                .sum();
            let overlap_after: f64 = children
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (ob, _))| enlarged.intersection_volume(ob))
                .sum();
            (overlap_after - overlap_before, vol_enl, cb.volume())
        } else {
            (vol_enl, cb.volume(), 0.0)
        };
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// R\* split over generic entries with a bbox accessor.
fn rstar_split<E>(mut entries: Vec<E>, bbox_of: impl Fn(&E) -> Aabb3) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() > MAX_ENTRIES);
    // 1. Choose the split axis: for each axis, sort by (min, max) and sum
    //    the margins of every legal distribution; pick the axis with the
    //    smallest total margin.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..3 {
        entries.sort_by(|a, b| {
            let ba = bbox_of(a);
            let bb = bbox_of(b);
            (ba.min[axis], ba.max[axis])
                .partial_cmp(&(bb.min[axis], bb.max[axis]))
                .expect("finite boxes")
        });
        let mut margin_sum = 0.0;
        for k in MIN_ENTRIES..=(entries.len() - MIN_ENTRIES) {
            let left = entries[..k]
                .iter()
                .fold(Aabb3::empty(), |a, e| a.union(&bbox_of(e)));
            let right = entries[k..]
                .iter()
                .fold(Aabb3::empty(), |a, e| a.union(&bbox_of(e)));
            margin_sum += left.margin() + right.margin();
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }
    // 2. Along the chosen axis, pick the distribution with minimum
    //    overlap (ties: minimum total volume).
    entries.sort_by(|a, b| {
        let ba = bbox_of(a);
        let bb = bbox_of(b);
        (ba.min[best_axis], ba.max[best_axis])
            .partial_cmp(&(bb.min[best_axis], bb.max[best_axis]))
            .expect("finite boxes")
    });
    let mut best_k = MIN_ENTRIES;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for k in MIN_ENTRIES..=(entries.len() - MIN_ENTRIES) {
        let left = entries[..k]
            .iter()
            .fold(Aabb3::empty(), |a, e| a.union(&bbox_of(e)));
        let right = entries[k..]
            .iter()
            .fold(Aabb3::empty(), |a, e| a.union(&bbox_of(e)));
        let key = (
            left.intersection_volume(&right),
            left.volume() + right.volume(),
        );
        if key < best_key {
            best_key = key;
            best_k = k;
        }
    }
    let mut right = entries.split_off(best_k);
    entries.shrink_to_fit();
    right.shrink_to_fit();
    (entries, right)
}

/// Appends `entry` to a node, growing it by exactly one slot when it is
/// full (`Vec::push` would double it).
fn push_exact<E>(slots: &mut Vec<E>, entry: E) {
    slots.reserve_exact(1);
    slots.push(entry);
}

/// Gives back all but one of the spare slots a node's removal left.
fn trim<E>(slots: &mut Vec<E>) {
    if slots.capacity() > slots.len() + 1 {
        slots.shrink_to(slots.len() + 1);
    }
}

/// A leaf's entry list, split in two.
type LeafSplit<T> = (Vec<(Aabb3, T)>, Vec<(Aabb3, T)>);
/// An internal node's child list, split in two.
type InternalSplit<T> = (Vec<(Aabb3, Arc<Node<T>>)>, Vec<(Aabb3, Arc<Node<T>>)>);

fn split_leaf<T>(entries: Vec<(Aabb3, T)>) -> LeafSplit<T> {
    rstar_split(entries, |e| e.0)
}

fn split_internal<T>(children: Vec<(Aabb3, Arc<Node<T>>)>) -> InternalSplit<T> {
    rstar_split(children, |e| e.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(x: f64, y: f64, t: f64, s: f64) -> Aabb3 {
        Aabb3::new([x, y, t], [x + s, y + s, t + s])
    }

    #[test]
    fn empty_tree() {
        let t: RStarTree<u64> = RStarTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        assert!(t.query_intersecting(&cube(0.0, 0.0, 0.0, 1.0)).is_empty());
        assert!(t.bbox().is_empty());
    }

    #[test]
    fn insert_and_query_small() {
        let mut t = RStarTree::new();
        t.insert(cube(0.0, 0.0, 0.0, 1.0), 1u64);
        t.insert(cube(5.0, 5.0, 5.0, 1.0), 2);
        t.insert(cube(0.5, 0.5, 0.5, 1.0), 3);
        assert_eq!(t.len(), 3);
        let mut hits = t.query_intersecting(&cube(0.0, 0.0, 0.0, 2.0));
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 3]);
        assert!(t
            .query_intersecting(&cube(100.0, 100.0, 100.0, 1.0))
            .is_empty());
    }

    #[test]
    fn grows_and_splits_correctly() {
        let mut t = RStarTree::new();
        let n = 500usize;
        for i in 0..n {
            let f = i as f64;
            t.insert(cube(f % 25.0, (f / 25.0) % 25.0, f / 625.0, 0.5), i as u64);
        }
        assert_eq!(t.len(), n);
        assert!(t.height() > 1, "tree should have split");
        // Every entry is findable through a query at its location.
        for i in 0..n {
            let f = i as f64;
            let q = cube(f % 25.0, (f / 25.0) % 25.0, f / 625.0, 0.5);
            assert!(
                t.query_intersecting(&q).contains(&(i as u64)),
                "entry {i} lost"
            );
        }
    }

    /// Brute-force cross-check on a pseudo-random workload.
    #[test]
    fn matches_brute_force() {
        let mut t = RStarTree::new();
        let mut reference: Vec<(Aabb3, u64)> = Vec::new();
        // Deterministic pseudo-random placement (LCG).
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        for i in 0..800u64 {
            let b = cube(next(), next(), next(), 1.0 + next() / 50.0);
            t.insert(b, i);
            reference.push((b, i));
        }
        for _ in 0..50 {
            let q = cube(next(), next(), next(), 10.0);
            let mut got = t.query_intersecting(&q);
            got.sort_unstable();
            let mut want: Vec<u64> = reference
                .iter()
                .filter(|(b, _)| b.intersects(&q))
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn remove_entries() {
        let mut t = RStarTree::new();
        let boxes: Vec<Aabb3> = (0..200)
            .map(|i| {
                let f = i as f64;
                cube(f % 20.0, f / 20.0, 0.0, 0.9)
            })
            .collect();
        for (i, b) in boxes.iter().enumerate() {
            t.insert(*b, i as u64);
        }
        // Remove every third entry.
        for (i, b) in boxes.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.remove(b, &(i as u64)), "remove {i}");
            }
        }
        assert_eq!(t.len(), 200 - 67);
        // Removed entries are gone; kept entries remain findable.
        for (i, b) in boxes.iter().enumerate() {
            let hits = t.query_intersecting(b);
            if i % 3 == 0 {
                assert!(!hits.contains(&(i as u64)), "entry {i} should be gone");
            } else {
                assert!(hits.contains(&(i as u64)), "entry {i} should remain");
            }
        }
        // Removing a non-existent entry is a no-op returning false.
        assert!(!t.remove(&boxes[0], &0));
    }

    #[test]
    fn remove_down_to_empty() {
        let mut t = RStarTree::new();
        let boxes: Vec<Aabb3> = (0..100).map(|i| cube(i as f64, 0.0, 0.0, 0.5)).collect();
        for (i, b) in boxes.iter().enumerate() {
            t.insert(*b, i as u64);
        }
        for (i, b) in boxes.iter().enumerate() {
            assert!(t.remove(b, &(i as u64)));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn duplicate_values_under_different_boxes() {
        let mut t = RStarTree::new();
        t.insert(cube(0.0, 0.0, 0.0, 1.0), 7u64);
        t.insert(cube(10.0, 0.0, 0.0, 1.0), 7);
        let hits = t.query_intersecting(&Aabb3::new([-1.0, -1.0, -1.0], [12.0, 2.0, 2.0]));
        assert_eq!(hits, vec![7, 7]);
        // Remove only the first instance.
        assert!(t.remove(&cube(0.0, 0.0, 0.0, 1.0), &7));
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.query_intersecting(&Aabb3::new([-1.0, -1.0, -1.0], [12.0, 2.0, 2.0])),
            vec![7]
        );
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let entries: Vec<(Aabb3, u64)> = (0..1000)
            .map(|i| {
                let f = i as f64;
                (cube(f % 31.0, (f * 0.7) % 29.0, (f * 0.3) % 23.0, 1.0), i)
            })
            .collect();
        let bulk = RStarTree::bulk_load(entries.clone());
        let mut incr = RStarTree::new();
        for (b, v) in &entries {
            incr.insert(*b, *v);
        }
        assert_eq!(bulk.len(), incr.len());
        let q = cube(5.0, 5.0, 5.0, 8.0);
        let mut a = bulk.query_intersecting(&q);
        let mut b = incr.query_intersecting(&q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // STR packing should be at least as shallow as incremental.
        assert!(bulk.height() <= incr.height());
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let t: RStarTree<u64> = RStarTree::bulk_load(Vec::new());
        assert!(t.is_empty());
        let t = RStarTree::bulk_load(vec![(cube(0.0, 0.0, 0.0, 1.0), 9u64)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query_intersecting(&cube(0.5, 0.5, 0.5, 0.1)), vec![9]);
    }

    /// Search touches far fewer nodes than the tree holds — the index is
    /// doing its job.
    #[test]
    fn search_is_selective() {
        let mut t = RStarTree::new();
        for i in 0..5000u64 {
            let f = i as f64;
            t.insert(cube(f % 71.0, (f * 0.61) % 67.0, (f * 0.37) % 59.0, 0.5), i);
        }
        let mut hits = 0;
        let stats = t.for_each_with_stats(&cube(10.0, 10.0, 10.0, 2.0), |_| hits += 1);
        assert_eq!(stats.matches, hits);
        assert!(
            stats.nodes_visited < t.node_count() / 4,
            "visited {} of {} nodes",
            stats.nodes_visited,
            t.node_count()
        );
    }

    fn grid_box(i: u64) -> Aabb3 {
        let f = i as f64;
        cube(f % 40.0, (f / 40.0).floor() % 40.0, f / 1600.0, 0.5)
    }

    fn grid_tree(n: u64) -> RStarTree<u64> {
        let mut t = RStarTree::new();
        for i in 0..n {
            t.insert(grid_box(i), i);
        }
        t
    }

    /// A clone shares every node; an update that fits in place copies
    /// exactly its root-to-leaf path, a general one a bounded number of
    /// paths; the clone keeps answering from what it held.
    #[test]
    fn a_write_copies_only_the_paths_it_changes() {
        let mut t = grid_tree(3_000);
        let pinned = t.clone();
        let (shared, total) = t.shared_nodes_with(&pinned);
        assert_eq!((shared, total), (t.node_count(), t.node_count()));
        let height = t.height();

        // Nudging an entry inside its own box fits every ancestor.
        let k = 20;
        for i in 0..k {
            let old = grid_box(i * 131);
            let new = Aabb3::new(old.min, [old.max[0] - 0.1, old.max[1] - 0.1, old.max[2]]);
            assert!(t.update(&old, &(i * 131), new, i * 131));
        }
        let (shared, total) = t.shared_nodes_with(&pinned);
        assert_eq!(
            total,
            pinned.node_count(),
            "in-place updates keep the shape"
        );
        assert!(
            total - shared <= k as usize * height,
            "{} nodes copied by {k} in-place updates at height {height}",
            total - shared
        );
        assert!(total - shared >= height, "and at least one path was");

        // A far move is a removal along the located path and an insert.
        let far = cube(39.0, 39.0, 1.8, 0.5);
        let old = grid_box(45);
        let before = t.shared_nodes_with(&pinned).0;
        assert!(t.update(&old, &45, far, 45));
        let after = t.shared_nodes_with(&pinned).0;
        assert!(
            before - after <= 3 * height,
            "{} more copied",
            before - after
        );

        // The clone still holds the tree as it was.
        assert!(pinned.query_intersecting(&old).contains(&45));
        assert!(!pinned.query_intersecting(&far).contains(&45));
        assert!(t.query_intersecting(&far).contains(&45));
        assert_eq!(pinned.len(), 3_000);
    }

    /// Looking for an entry that is not there — descending into every
    /// subtree whose box contains it on the way — copies nothing.
    #[test]
    fn a_failed_remove_or_update_copies_no_node() {
        let mut t = grid_tree(3_000);
        let pinned = t.clone();
        let total = t.node_count();
        // Right box, wrong value; right value, wrong box; a box nothing
        // holds but several nodes contain.
        let held = grid_box(87);
        let inside = Aabb3::new([7.1, 2.1, 0.06], [7.2, 2.2, 0.07]);
        assert!(!t.remove(&held, &88));
        assert!(!t.remove(&inside, &87));
        assert!(!t.update(&held, &88, inside, 88));
        assert!(!t.update(&inside, &87, held, 87));
        assert_eq!(t.shared_nodes_with(&pinned), (total, total));
        assert_eq!(t.len(), 3_000);
        // The entry that is there still is.
        assert!(t.remove(&held, &87));
        assert!(t.shared_nodes_with(&pinned).0 < total);
    }

    /// A node keeps at most one spare slot — through 100 000 inserts and
    /// their splits, a round of updates (in place and re-filed) and a
    /// round of removals that condense leaves — so the tree's slots are
    /// its entries and child links plus at most one per node.
    #[test]
    fn nodes_keep_at_most_one_spare_slot() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        let n = 100_000;
        let mut boxes: Vec<Aabb3> = (0..n).map(|_| cube(next(), next(), next(), 0.5)).collect();
        let mut t = RStarTree::new();
        for (i, b) in boxes.iter().enumerate() {
            t.insert(*b, i);
        }
        let check = |t: &RStarTree<usize>, entries: usize| {
            let (slots, used) = t.node_slots();
            let nodes = t.node_count();
            assert_eq!(used, entries + nodes - 1, "entries plus child links");
            assert!(
                slots <= used + nodes,
                "{slots} slots for {used} entries and links in {nodes} nodes"
            );
        };
        check(&t, n);
        for i in (0..n).step_by(7) {
            let old = boxes[i];
            boxes[i] = if i % 2 == 0 {
                Aabb3::new(old.min, [old.max[0] - 0.1, old.max[1], old.max[2]])
            } else {
                cube(next(), next(), next(), 0.5)
            };
            assert!(t.update(&old, &i, boxes[i], i));
        }
        for i in (0..n).step_by(5) {
            assert!(t.remove(&boxes[i], &i));
        }
        check(&t, n - n / 5);
    }

    #[test]
    fn for_each_visits_all_matches() {
        let mut t = RStarTree::new();
        for i in 0..100u64 {
            t.insert(cube(i as f64, 0.0, 0.0, 0.5), i);
        }
        let mut n = 0;
        let stats =
            t.for_each_with_stats(&Aabb3::new([0.0, 0.0, 0.0], [9.9, 1.0, 1.0]), |_| n += 1);
        assert_eq!((n, stats.matches), (10, 10));
    }
}
