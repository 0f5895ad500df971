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
//! **A node is one allocation.** A node is its slots — an exact-sized
//! `Arc` slice of `(box, entry)` in a leaf, `(box, child node)` above —
//! held by value in its parent's slot (the root by the tree). There is no
//! separate node header and no spare capacity: a write that changes a
//! node's length rebuilds its slice one longer or shorter, moving the
//! slots across when nobody else holds the node, and a search follows one
//! pointer per node.
//!
//! **A copy is a root.** Cloning a tree copies the root's pointer and the
//! clone shares every node. A write copies the nodes on the one path it
//! changes, and only those a clone still holds (`Arc::make_mut`); a tree
//! nobody else holds mutates in place. `remove` and `update` first
//! *locate* their entry read-only and then descend that one path, so
//! looking into a subtree that turns out not to hold the entry — or
//! failing to find it at all — copies nothing.
//!
//! **A slot holds an `f32` cover.** The tree only filters (§4.2: the
//! o-plane index hands candidates to exact refinement), so a stored box
//! has to *contain* the box it was given, not equal it. Every entry point
//! — [`RStarTree::insert`], [`RStarTree::remove`], [`RStarTree::update`],
//! [`RStarTree::bulk_load`] and the searches — rounds its [`Aabb3`]
//! outward to `f32` once (each `min` down, each `max` up, to the nearest
//! `f32` on that side: −∞ or +∞ past the `f32` range), and leaves and
//! nodes store only those rounded boxes: a leaf slot is 24 B of box and
//! one pointer, 32 B, and an internal slot 24 B of box and the child
//! node's tag and slice pointer, 48 B. The union of rounded boxes is
//! exact in `f32`, so a node's box is still the exact cover of its slots.
//! The stored box contains the given one and the rounded query contains
//! the query, so a search returns every value an `f64` comparison would,
//! plus at most those whose box lies within one `f32` step of the query's
//! (≈ 1.5·10⁻⁵ mi at 128 mi). Rounding is a function of the box, so a
//! write that derives the same box again finds its entry by exact
//! equality. [`RStarTree::bbox`] and [`RStarTree::for_each_entry`] hand
//! out the stored box widened back to `f64` — [`stored_box`] of what
//! was given.

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

/// The box an [`RStarTree`] stores for an entry inserted under `b`: `b`
/// rounded outward to `f32` (each `min` down, each `max` up) and widened
/// back to `f64`, so it contains `b`.
pub fn stored_box(b: &Aabb3) -> Aabb3 {
    Bounds::round_out(b).widen()
}

/// A stored box: the smallest `f32` box containing an [`Aabb3`] (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bounds {
    min: [f32; 3],
    max: [f32; 3],
}

impl Bounds {
    /// The union identity.
    const EMPTY: Bounds = Bounds {
        min: [f32::INFINITY; 3],
        max: [f32::NEG_INFINITY; 3],
    };

    /// `b` with each `min` rounded down and each `max` rounded up to `f32`.
    fn round_out(b: &Aabb3) -> Bounds {
        Bounds {
            min: b.min.map(|lo| {
                let f = lo as f32;
                if f64::from(f) > lo {
                    f.next_down()
                } else {
                    f
                }
            }),
            max: b.max.map(|hi| {
                let f = hi as f32;
                if f64::from(f) < hi {
                    f.next_up()
                } else {
                    f
                }
            }),
        }
    }

    /// The same box in `f64`, exactly.
    fn widen(&self) -> Aabb3 {
        Aabb3 {
            min: self.min.map(f64::from),
            max: self.max.map(f64::from),
        }
    }

    /// Smallest box covering both — exact, as `f32` min and max are.
    fn union(&self, other: &Bounds) -> Bounds {
        Bounds {
            min: std::array::from_fn(|i| self.min[i].min(other.min[i])),
            max: std::array::from_fn(|i| self.max[i].max(other.max[i])),
        }
    }

    /// `true` when the boxes overlap (shared boundary counts).
    fn intersects(&self, other: &Bounds) -> bool {
        (0..3).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// `true` when `other` lies entirely inside `self`.
    fn contains(&self, other: &Bounds) -> bool {
        (0..3).all(|i| self.min[i] <= other.min[i] && self.max[i] >= other.max[i])
    }

    /// Center along `axis`, in `f64`.
    fn center(&self, axis: usize) -> f64 {
        (f64::from(self.min[axis]) + f64::from(self.max[axis])) * 0.5
    }
}

/// A node's slots, exactly as many as it holds. A slot is `Some` whenever
/// anyone can look at it; it is an `Option` so that a node nobody shares
/// can hand its slots on by `take` when it is rebuilt one longer or
/// shorter, where the slots of a plain `Arc<[(Bounds, E)]>` could only be
/// cloned — one reference-count write per shared entry or child, twice
/// (the clone, then the drop of the original). The pointer in a leaf's
/// entry and the tag of a child node are niches, so the `Option` costs no
/// space there.
type Slots<E> = Arc<[Option<(Bounds, E)>]>;

/// A node: one allocation, its slots (see the module docs).
#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Slots<T>),
    Internal(Slots<Node<T>>),
}

impl<T> Node<T> {
    fn bbox(&self) -> Bounds {
        match self {
            Node::Leaf(es) => union_of(es),
            Node::Internal(cs) => union_of(cs),
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Internal(cs) => cs.len(),
        }
    }

    /// The allocation the node is — what the sharing probe compares.
    fn as_ptr(&self) -> *const () {
        match self {
            Node::Leaf(es) => Arc::as_ptr(es).cast(),
            Node::Internal(cs) => Arc::as_ptr(cs).cast(),
        }
    }
}

/// A slot anyone can look at, which is full.
fn full<E>(slot: &Option<(Bounds, E)>) -> &(Bounds, E) {
    slot.as_ref().expect("a visible slot is full")
}

/// [`full`], mutably.
fn full_mut<E>(slot: &mut Option<(Bounds, E)>) -> &mut (Bounds, E) {
    slot.as_mut().expect("a visible slot is full")
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
    root: Node<T>,
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
            root: Node::Leaf(Arc::new([])),
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

    /// Bounding box of everything in the tree (empty box when empty): the
    /// union of the stored boxes, so it contains every box inserted.
    pub fn bbox(&self) -> Aabb3 {
        self.root.bbox().widen()
    }

    /// Tree height (a single leaf level is height 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(cs) = node {
            h += 1;
            node = &full(&cs[0]).1;
        }
        h
    }

    /// Total node count (for space accounting in experiments).
    pub fn node_count(&self) -> usize {
        fn count<T>(n: &Node<T>) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Internal(cs) => 1 + cs.iter().flatten().map(|(_, c)| count(c)).sum::<usize>(),
            }
        }
        count(&self.root)
    }

    /// Inserts a (box, value) entry, filed under [`stored_box`]`(&bbox)`.
    /// Degenerate (zero-volume) boxes are fine — a query region at a
    /// single time instant is one.
    pub fn insert(&mut self, bbox: Aabb3, value: T) {
        debug_assert!(!bbox.is_empty(), "cannot index an empty box");
        self.insert_stored(Bounds::round_out(&bbox), value);
    }

    /// Inserts an entry under a box already rounded.
    fn insert_stored(&mut self, bbox: Bounds, value: T) {
        if let Some((left_box, right)) = Self::insert_rec(&mut self.root, bbox, value) {
            // Root split: grow the tree by one level.
            let left = std::mem::replace(&mut self.root, Node::Leaf(Arc::new([])));
            self.root = Node::Internal(Arc::new([
                Some((left_box, left)),
                Some((right.bbox(), right)),
            ]));
        }
        self.size += 1;
    }

    /// Recursive insert down the one chosen path (each node on it is
    /// copied first if a clone shares it); returns
    /// `Some((this_node_new_bbox, sibling))` when this node split.
    fn insert_rec(node: &mut Node<T>, bbox: Bounds, value: T) -> Option<(Bounds, Node<T>)> {
        match node {
            Node::Leaf(entries) => {
                let right = push_or_split(entries, (bbox, value))?;
                Some((union_of(entries), Node::Leaf(right)))
            }
            Node::Internal(children) => {
                let idx = choose_subtree(children, &bbox);
                let (child_box, child) = full_mut(&mut Arc::make_mut(children)[idx]);
                match Self::insert_rec(child, bbox, value) {
                    None => {
                        *child_box = child_box.union(&bbox);
                        None
                    }
                    Some((new_child_box, sibling)) => {
                        *child_box = new_child_box;
                        let right = push_or_split(children, (sibling.bbox(), sibling))?;
                        Some((union_of(children), Node::Internal(right)))
                    }
                }
            }
        }
    }

    /// Removes one entry inserted as `(bbox, value)` — one whose stored box
    /// is `bbox`'s rounding and whose value equals `value`. Returns `true`
    /// when an entry was removed; `false` leaves the tree — and every node
    /// it shares with a clone — untouched.
    pub fn remove(&mut self, bbox: &Aabb3, value: &T) -> bool {
        let bbox = Bounds::round_out(bbox);
        let mut path = Vec::with_capacity(8);
        let found = Self::locate(&self.root, &bbox, value, &bbox, &mut path).is_some();
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
        bbox: &Bounds,
        value: &T,
        also: &Bounds,
        path: &mut Vec<usize>,
    ) -> Option<bool> {
        match node {
            Node::Leaf(entries) => {
                let pos = entries
                    .iter()
                    .position(|slot| matches!(slot, Some((b, v)) if b == bbox && v == value))?;
                path.push(pos);
                Some(true)
            }
            Node::Internal(children) => {
                for (i, slot) in children.iter().enumerate() {
                    let (cb, child) = full(slot);
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
        let mut orphans: Vec<(Bounds, T)> = Vec::new();
        Self::remove_rec(&mut self.root, path, &mut orphans);
        self.size -= 1;
        // Collapse a root with a single internal child.
        while let Node::Internal(cs) = &self.root {
            if cs.len() != 1 {
                break;
            }
            self.root = full(&cs[0]).1.clone();
        }
        // Reinsert entries from condensed nodes.
        let n_orphans = orphans.len();
        for (b, v) in orphans {
            self.insert_stored(b, v);
        }
        self.size -= n_orphans; // insert_stored() counted them again
    }

    /// Recursive delete along `path` with condensation: underfull nodes
    /// dissolve into `orphans`.
    fn remove_rec(node: &mut Node<T>, path: &[usize], orphans: &mut Vec<(Bounds, T)>) {
        let (&i, rest) = path.split_first().expect("a located path ends in a leaf");
        match node {
            Node::Leaf(entries) => {
                swap_out(entries, i);
            }
            Node::Internal(children) => {
                let (child_box, child) = full_mut(&mut Arc::make_mut(children)[i]);
                Self::remove_rec(child, rest, orphans);
                if child.len() < MIN_ENTRIES {
                    // Condense: dissolve the underfull child.
                    let (_, child) = swap_out(children, i);
                    collect_entries(child, orphans);
                } else {
                    *child_box = child.bbox();
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
        let (old, new) = (Bounds::round_out(old), Bounds::round_out(&new));
        let mut path = Vec::with_capacity(8);
        let Some(fits) = Self::locate(&self.root, &old, value, &new, &mut path) else {
            return false;
        };
        if !fits {
            self.remove_located(&path);
            self.insert_stored(new, replacement);
            return true;
        }
        let (&pos, descent) = path.split_last().expect("a located path ends in a leaf");
        let mut node = &mut self.root;
        for &i in descent {
            let Node::Internal(children) = node else {
                unreachable!("a located path descends internal nodes")
            };
            node = &mut full_mut(&mut Arc::make_mut(children)[i]).1;
        }
        let Node::Leaf(entries) = node else {
            unreachable!("a located path ends in a leaf")
        };
        Arc::make_mut(entries)[pos] = Some((new, replacement));
        true
    }

    /// `(shared, total)`: how many of this tree's nodes `other` holds
    /// too, out of how many it has — the probe the sharing tests count
    /// with.
    #[doc(hidden)]
    pub fn shared_nodes_with(&self, other: &Self) -> (usize, usize) {
        fn walk<T>(node: &Node<T>, visit: &mut impl FnMut(*const ())) {
            visit(node.as_ptr());
            if let Node::Internal(children) = node {
                children
                    .iter()
                    .flatten()
                    .for_each(|(_, child)| walk(child, visit));
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

    /// `(leaf slot, internal slot)` sizes in bytes — the probe the
    /// footprint tests pin.
    #[doc(hidden)]
    pub fn slot_bytes() -> (usize, usize) {
        (
            std::mem::size_of::<Option<(Bounds, T)>>(),
            std::mem::size_of::<Option<(Bounds, Node<T>)>>(),
        )
    }

    /// `(slots, used)`: how many entry slots the tree's nodes have
    /// allocated, and how many of them hold an entry or a child — the
    /// probe the footprint tests count with.
    #[doc(hidden)]
    pub fn node_slots(&self) -> (usize, usize) {
        fn walk<T>(node: &Node<T>, slots: &mut (usize, usize)) {
            match node {
                Node::Leaf(es) => {
                    slots.0 += es.len();
                    slots.1 += es.iter().flatten().count();
                }
                Node::Internal(cs) => {
                    slots.0 += cs.len();
                    slots.1 += cs.iter().flatten().count();
                    cs.iter()
                        .flatten()
                        .for_each(|(_, child)| walk(child, slots));
                }
            }
        }
        let mut slots = (0, 0);
        walk(&self.root, &mut slots);
        slots
    }

    /// Visits every `(box, value)` entry in the leaves, each with its
    /// stored box widened back to `f64` — the probe the filing tests walk
    /// the tree with.
    #[doc(hidden)]
    pub fn for_each_entry(&self, mut f: impl FnMut(&Aabb3, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(&Aabb3, &T)) {
            match node {
                Node::Leaf(es) => es.iter().flatten().for_each(|(b, v)| f(&b.widen(), v)),
                Node::Internal(cs) => cs.iter().flatten().for_each(|(_, child)| walk(child, f)),
            }
        }
        walk(&self.root, &mut f);
    }

    /// All values whose stored boxes intersect `query` rounded outward —
    /// every value whose box intersects `query`, and at most those within
    /// one `f32` step of it besides (duplicates possible when one value
    /// was inserted under several intersecting boxes).
    pub fn query_intersecting(&self, query: &Aabb3) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_with_stats(query, |v| out.push(v.clone()));
        out
    }

    /// Visits every value [`RStarTree::query_intersecting`] returns without
    /// allocating a result vector, and returns the search statistics.
    pub fn for_each_with_stats<F: FnMut(&T)>(&self, query: &Aabb3, mut f: F) -> SearchStats {
        let mut stats = SearchStats::default();
        Self::search_rec(&self.root, &Bounds::round_out(query), &mut f, &mut stats);
        stats
    }

    fn search_rec<F: FnMut(&T)>(
        node: &Node<T>,
        query: &Bounds,
        f: &mut F,
        stats: &mut SearchStats,
    ) {
        stats.nodes_visited += 1;
        match node {
            Node::Leaf(entries) => {
                for (b, v) in entries.iter().flatten() {
                    stats.entries_tested += 1;
                    if b.intersects(query) {
                        stats.matches += 1;
                        f(v);
                    }
                }
            }
            Node::Internal(children) => {
                for (b, child) in children.iter().flatten() {
                    if b.intersects(query) {
                        Self::search_rec(child, query, f, stats);
                    }
                }
            }
        }
    }

    /// Bulk-loads entries with the Sort-Tile-Recursive (STR) packing
    /// algorithm — much faster and better-packed than repeated inserts for
    /// an initial fleet load. Each box is stored as by
    /// [`RStarTree::insert`].
    pub fn bulk_load(entries: Vec<(Aabb3, T)>) -> Self {
        let size = entries.len();
        if size == 0 {
            return RStarTree::new();
        }
        let mut entries: Vec<(Bounds, T)> = entries
            .into_iter()
            .map(|(b, v)| (Bounds::round_out(&b), v))
            .collect();
        // STR: sort by x-center, slice into vertical slabs; within each,
        // sort by y-center, slice; within each, sort by t-center and pack
        // leaves of MAX_ENTRIES.
        let n_leaves = size.div_ceil(MAX_ENTRIES);
        let s = (n_leaves as f64).powf(1.0 / 3.0).ceil() as usize;
        let slab_x = s * s * MAX_ENTRIES;
        let slab_y = s * MAX_ENTRIES;
        entries.sort_by(|a, b| {
            a.0.center(0)
                .partial_cmp(&b.0.center(0))
                .expect("finite centers")
        });
        let mut level: Vec<Node<T>> = Vec::with_capacity(n_leaves);
        for xs in entries.chunks_mut(slab_x.max(1)) {
            xs.sort_by(|a, b| {
                a.0.center(1)
                    .partial_cmp(&b.0.center(1))
                    .expect("finite centers")
            });
            for ys in xs.chunks_mut(slab_y.max(1)) {
                ys.sort_by(|a, b| {
                    a.0.center(2)
                        .partial_cmp(&b.0.center(2))
                        .expect("finite centers")
                });
                for chunk in ys.chunks(MAX_ENTRIES) {
                    level.push(Node::Leaf(chunk.iter().cloned().map(Some).collect()));
                }
            }
        }
        // Pack upper levels until a single root remains.
        while level.len() > 1 {
            let mut nodes = level.into_iter();
            level = Vec::with_capacity(nodes.len().div_ceil(MAX_ENTRIES));
            while nodes.len() > 0 {
                let batch = nodes.by_ref().take(MAX_ENTRIES);
                level.push(Node::Internal(
                    batch.map(|node| Some((node.bbox(), node))).collect(),
                ));
            }
        }
        RStarTree {
            root: level.pop().expect("at least one node"),
            size,
        }
    }
}

/// Every slot of `slots`, moved out when nobody else holds the node,
/// cloned when somebody does (who then keeps the originals).
fn drain<E: Clone>(slots: &mut Slots<E>) -> impl Iterator<Item = (Bounds, E)> + '_ {
    Arc::make_mut(slots)
        .iter_mut()
        .map(|slot| slot.take().expect("a visible slot is full"))
}

/// Appends `slot` to a node, rebuilt one longer. A node that would pass
/// [`MAX_ENTRIES`] splits instead: it keeps one group and the other is
/// returned.
fn push_or_split<E: Clone>(slots: &mut Slots<E>, slot: (Bounds, E)) -> Option<Slots<E>> {
    if slots.len() < MAX_ENTRIES {
        *slots = drain(slots).chain([slot]).map(Some).collect();
        return None;
    }
    let (left, right) = rstar_split(drain(slots).chain([slot]).collect());
    *slots = left.into_iter().map(Some).collect();
    Some(right.into_iter().map(Some).collect())
}

/// Takes the slot at `i` out of a node, rebuilt one shorter with its last
/// slot moved into the gap (as `Vec::swap_remove` does).
fn swap_out<E: Clone>(slots: &mut Slots<E>, i: usize) -> (Bounds, E) {
    let all = Arc::make_mut(slots);
    let last = all.len() - 1;
    all.swap(i, last);
    let out = all[last].take().expect("a visible slot is full");
    let rest: Slots<E> = all[..last].iter_mut().map(Option::take).collect();
    *slots = rest;
    out
}

/// Moves a dissolved subtree's entries into `out`; a node a clone still
/// holds is copied instead (the clone keeps its own).
fn collect_entries<T: Clone>(node: Node<T>, out: &mut Vec<(Bounds, T)>) {
    match node {
        Node::Leaf(mut es) => out.extend(drain(&mut es)),
        Node::Internal(mut cs) => {
            for (_, c) in drain(&mut cs) {
                collect_entries(c, out);
            }
        }
    }
}

/// R\* choose-subtree: at the level above leaves minimise overlap
/// enlargement (ties: volume enlargement, then volume); higher up minimise
/// volume enlargement (ties: volume). Each child's box is widened to
/// `f64` once, before the O(M²) overlap sums — which the leaf level skips
/// when a child takes the box with no growth at all
/// ([`choose_without_growth`]).
fn choose_subtree<T>(children: &[Option<(Bounds, Node<T>)>], bbox: &Bounds) -> usize {
    debug_assert!(children.len() <= MAX_ENTRIES);
    let mut wide = [Aabb3::empty(); MAX_ENTRIES];
    for (w, (cb, _)) in wide.iter_mut().zip(children.iter().flatten()) {
        *w = cb.widen();
    }
    let wide = &wide[..children.len()];
    let bbox = bbox.widen();
    if matches!(full(&children[0]).1, Node::Leaf(_)) {
        choose_without_growth(wide, &bbox).unwrap_or_else(|| choose_by_keys(wide, &bbox, true))
    } else {
        choose_by_keys(wide, &bbox, false)
    }
}

/// The R\* key loop over the children's widened boxes: the first child
/// with the least key wins.
fn choose_by_keys(wide: &[Aabb3], bbox: &Aabb3, at_leaf_level: bool) -> usize {
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, cb) in wide.iter().enumerate() {
        let enlarged = cb.union(bbox);
        let vol_enl = enlarged.volume() - cb.volume();
        let key = if at_leaf_level {
            (overlap_growth(wide, i, &enlarged), vol_enl, cb.volume())
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

/// How much child `i`'s overlap with its siblings grows when its box
/// becomes `enlarged`.
fn overlap_growth(wide: &[Aabb3], i: usize, enlarged: &Aabb3) -> f64 {
    let overlap = |b: &Aabb3| -> f64 {
        wide.iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, ob)| b.intersection_volume(ob))
            .sum()
    };
    overlap(enlarged) - overlap(&wide[i])
}

/// [`choose_by_keys`] at the leaf level, exactly, for the common case:
/// some child takes the box with a key of exactly `(0, 0, volume)` — a
/// child that contains it always does. Neither enlargement is ever
/// negative in floating point (a union's extents are at least the
/// child's, and rounding, products and sums in the same order are
/// monotone), so such a child beats every child that grows, and only the
/// children whose volume does not grow need the O(M²) overlap sums; the
/// least volume wins, the first index on a tie. `None` — run the full
/// loop — when no child qualifies or a volume or volume enlargement is
/// not finite (a NaN key compares as neither less nor more).
fn choose_without_growth(wide: &[Aabb3], bbox: &Aabb3) -> Option<usize> {
    let mut vol_enl = [0.0; MAX_ENTRIES];
    for (e, cb) in vol_enl.iter_mut().zip(wide) {
        let volume = cb.volume();
        *e = cb.union(bbox).volume() - volume;
        if !volume.is_finite() || !e.is_finite() {
            return None;
        }
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, cb) in wide.iter().enumerate() {
        if vol_enl[i] == 0.0 && overlap_growth(wide, i, &cb.union(bbox)) == 0.0 {
            let volume = cb.volume();
            if best.is_none_or(|(_, least)| volume < least) {
                best = Some((i, volume));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// A node's slots, split in two groups.
type Split<E> = (Vec<(Bounds, E)>, Vec<(Bounds, E)>);

/// R\* split of a node's slots. Sorting compares the `f32` bounds and the
/// groups are unions in `f32`, both exact, so only a group's union is
/// widened to `f64` for its margin or volume.
fn rstar_split<E>(mut entries: Vec<(Bounds, E)>) -> Split<E> {
    debug_assert!(entries.len() > MAX_ENTRIES);
    let by_axis = |axis: usize| {
        move |a: &(Bounds, E), b: &(Bounds, E)| {
            (a.0.min[axis], a.0.max[axis])
                .partial_cmp(&(b.0.min[axis], b.0.max[axis]))
                .expect("finite boxes")
        }
    };
    // 1. Choose the split axis: for each axis, sort by (min, max) and sum
    //    the margins of every legal distribution; pick the axis with the
    //    smallest total margin.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..3 {
        entries.sort_by(by_axis(axis));
        let mut margin_sum = 0.0;
        for (_, left, right) in distributions(&entries) {
            margin_sum += left.margin() + right.margin();
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }
    // 2. Along the chosen axis, pick the distribution with minimum
    //    overlap (ties: minimum total volume).
    entries.sort_by(by_axis(best_axis));
    let mut best_k = MIN_ENTRIES;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (k, left, right) in distributions(&entries) {
        let key = (
            left.intersection_volume(&right),
            left.volume() + right.volume(),
        );
        if key < best_key {
            best_key = key;
            best_k = k;
        }
    }
    let right = entries.split_off(best_k);
    (entries, right)
}

/// Every legal distribution of `entries`, `k` from `MIN_ENTRIES` to
/// `len - MIN_ENTRIES`: `k` and the boxes of its two groups, `[..k]` and
/// `[k..]`, widened. One pass of prefix unions and one of suffix unions
/// make them all: an `f32` union is exact and order-free, so each is the
/// union of its group's own slots.
fn distributions<E>(entries: &[(Bounds, E)]) -> impl Iterator<Item = (usize, Aabb3, Aabb3)> {
    let grow = |acc: &mut Bounds, (b, _): &(Bounds, E)| {
        *acc = acc.union(b);
        Some(*acc)
    };
    // `prefix[i]` covers `..=i`, `suffix[i]` covers `i..`.
    let prefix: Vec<Bounds> = entries.iter().scan(Bounds::EMPTY, grow).collect();
    let mut suffix: Vec<Bounds> = entries.iter().rev().scan(Bounds::EMPTY, grow).collect();
    suffix.reverse();
    (MIN_ENTRIES..=entries.len() - MIN_ENTRIES)
        .map(move |k| (k, prefix[k - 1].widen(), suffix[k].widen()))
}

/// The union of a node's slot boxes.
fn union_of<E>(slots: &[Option<(Bounds, E)>]) -> Bounds {
    slots
        .iter()
        .flatten()
        .fold(Bounds::EMPTY, |a, (b, _)| a.union(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// A node keeps no spare slot — through 100 000 inserts and their
    /// splits, a round of updates (in place and re-filed) and a round of
    /// removals that condense leaves — so the tree's slots are exactly
    /// its entries and child links.
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
            assert_eq!(
                slots, used,
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

    /// A leaf slot is a box of six `f32`s and one pointer, 32 B; an
    /// internal slot is the box and the child node — its tag and its
    /// slice's pointer and length — 48 B. A value with no niche (`u64`)
    /// pays 8 B for the slot's `Option` tag.
    #[test]
    fn slots_are_32_bytes() {
        assert_eq!(RStarTree::<Arc<u64>>::slot_bytes(), (32, 48));
        assert_eq!(RStarTree::<u64>::slot_bytes(), (40, 48));
    }

    /// A box on a coarse grid, so that children nest, repeat and tie
    /// exactly; a `flat` axis has zero extent.
    fn grid_box_case() -> impl Strategy<Value = Aabb3> {
        let axis = || (0u8..6, 0u8..4, any::<bool>());
        (axis(), axis(), axis()).prop_map(|(x, y, t)| {
            let (lo, hi): (Vec<f64>, Vec<f64>) = [x, y, t]
                .into_iter()
                .map(|(lo, size, flat)| {
                    let lo = f64::from(lo) * 0.5;
                    (lo, lo + if flat { 0.0 } else { f64::from(size) + 0.5 })
                })
                .unzip();
            Aabb3::new([lo[0], lo[1], lo[2]], [hi[0], hi[1], hi[2]])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The leaf-level fast path picks exactly the child the full R\*
        /// key loop picks, ties included: over children with zero-volume,
        /// nested and duplicate boxes, a box one of them contains (a copy
        /// of a child's box, a sub-box of it or one of its corners) or one
        /// drawn freely, and now and then an infinite bound.
        #[test]
        fn choose_subtree_fast_path_matches_the_key_loop(
            children in proptest::collection::vec(grid_box_case(), 1..=MAX_ENTRIES),
            (pick, kind, infinite) in (0usize..MAX_ENTRIES, 0u8..4, 0u8..16),
            free in grid_box_case(),
            shrink in (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.4),
        ) {
            let mut children = children;
            if infinite == 0 {
                children[0].max[2] = f64::INFINITY;
            }
            let host = children[pick % children.len()];
            let shrink = [shrink.0, shrink.1, shrink.2];
            let bbox = match kind {
                0 => host,
                1 => Aabb3::new(
                    std::array::from_fn(|i| host.min[i] + shrink[i] * (host.max[i] - host.min[i])),
                    std::array::from_fn(|i| host.max[i] - shrink[i] * (host.max[i] - host.min[i])),
                ),
                2 => Aabb3::new(host.min, host.min),
                _ => free,
            };
            let fast = choose_without_growth(&children, &bbox);
            let full = choose_by_keys(&children, &bbox, true);
            prop_assert_eq!(fast.unwrap_or(full), full, "children {:?}, box {:?}", children, bbox);
            if kind < 3 && infinite != 0 {
                prop_assert!(fast.is_some(), "a containing child takes the fast path");
            }
        }

        /// The split's prefix and suffix unions are each group's own
        /// union, bit for bit, for every legal distribution of an
        /// overflowing node.
        #[test]
        fn split_distributions_are_the_groups_own_unions(
            boxes in proptest::collection::vec(grid_box_case(), MAX_ENTRIES + 1),
        ) {
            let entries: Vec<(Bounds, ())> = boxes.iter().map(|b| (Bounds::round_out(b), ())).collect();
            let union = |es: &[(Bounds, ())]| {
                es.iter().fold(Bounds::EMPTY, |a, (b, _)| a.union(b)).widen()
            };
            let ks: Vec<usize> = distributions(&entries).map(|(k, _, _)| k).collect();
            prop_assert_eq!(ks, (MIN_ENTRIES..=MAX_ENTRIES + 1 - MIN_ENTRIES).collect::<Vec<_>>());
            for (k, left, right) in distributions(&entries) {
                prop_assert_eq!((left, right), (union(&entries[..k]), union(&entries[k..])));
            }
        }
    }

    /// A box one step past a child's face: that child's volume
    /// enlargement rounds to zero, but its overlap with the neighbour
    /// behind the face grows, so the full loop takes the child that
    /// contains the box — and so does the fast path, which sums the
    /// overlaps of every child whose volume does not grow.
    #[test]
    fn choose_subtree_fast_path_keeps_the_overlap_test() {
        let (ex, ey, ez) = (1.9014274576114836, 1.0305899830335536, 1.025445860993461);
        let children = [
            Aabb3::new([0.0; 3], [ex, ey, ez]),
            Aabb3::new([0.0; 3], [4.0; 3]),
            Aabb3::new([ex, 0.0, 0.0], [ex + 1.0, ey, ez]),
        ];
        let bbox = Aabb3::new([0.0; 3], [ex.next_up(), ey, ez]);
        assert_eq!(children[0].union(&bbox).volume(), children[0].volume());
        assert!(overlap_growth(&children, 0, &children[0].union(&bbox)) > 0.0);
        assert_eq!(choose_by_keys(&children, &bbox, true), 1);
        assert_eq!(choose_without_growth(&children, &bbox), Some(1));
    }

    /// The `f32` grid's step just above `x`.
    fn step(x: f64) -> f64 {
        let f = x as f32;
        f64::from(f.next_up()) - f64::from(f)
    }

    /// A query box and boxes around it, magnitudes up to 1e7: some free,
    /// some with a face within a few `f32` steps of the query's on one
    /// axis (inside or out), some zero-width, and some the *twin* of the
    /// box before them — a different `f64` box with the same rounding.
    fn rounding_case() -> impl Strategy<Value = (Aabb3, Vec<Aabb3>)> {
        (
            (
                -1e7f64..1e7,
                -1e7f64..1e7,
                -1e7f64..1e7,
                0.0f64..1e3,
                any::<bool>(),
            ),
            proptest::collection::vec(
                (
                    0usize..4,
                    0usize..3,
                    -2.0f64..3.0,
                    (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
                    0.0f64..1.0,
                ),
                1..150,
            ),
        )
            .prop_map(|((x, y, t, w, flat), raw)| {
                let q = Aabb3::new(
                    [x - w, y - w, t - if flat { 0.0 } else { w }],
                    [x + w, y + w, t + if flat { 0.0 } else { w }],
                );
                let c = q.center();
                let mut boxes: Vec<Aabb3> = Vec::with_capacity(raw.len());
                for (kind, axis, gap, (fx, fy, ft), size) in raw {
                    let f = [fx, fy, ft];
                    let half = if kind == 2 { 0.0 } else { size * w };
                    let spread = if kind == 0 { 3.0 * w + 1.0 } else { 0.9 * w };
                    let mut min: [f64; 3] = std::array::from_fn(|i| c[i] + f[i] * spread - half);
                    let mut max: [f64; 3] = std::array::from_fn(|i| c[i] + f[i] * spread + half);
                    if kind > 0 {
                        // Against one of the query's faces, `gap` steps out.
                        let extent = max[axis] - min[axis];
                        if f[axis] < 0.0 {
                            max[axis] = q.min[axis] - gap * step(q.min[axis]);
                            min[axis] = max[axis] - extent;
                        } else {
                            min[axis] = q.max[axis] + gap * step(q.max[axis]);
                            max[axis] = min[axis] + extent;
                        }
                    }
                    let b = match (kind, boxes.last()) {
                        // Each bound moved half-way to its rounding: a
                        // different box, the same `Bounds`.
                        (3, Some(prev)) => {
                            let r = Bounds::round_out(prev).widen();
                            Aabb3 {
                                min: std::array::from_fn(|i| (prev.min[i] + r.min[i]) / 2.0),
                                max: std::array::from_fn(|i| (prev.max[i] + r.max[i]) / 2.0),
                            }
                        }
                        _ => Aabb3::new(min, max),
                    };
                    boxes.push(b);
                }
                (q, boxes)
            })
    }

    /// The sorted values `tree` files, each with the box it hands out.
    fn filed(tree: &RStarTree<usize>) -> Vec<(usize, Aabb3)> {
        let mut out = Vec::new();
        tree.for_each_entry(|b, &v| out.push((v, *b)));
        out.sort_by_key(|&(v, _)| v);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rounding outward keeps the tree a sound filter that files
        /// exactly. Each slot holds the tightest `f32` box containing its
        /// `f64` box; a search returns every value whose `f64` box meets
        /// the query, and exactly those whose rounded box meets the
        /// rounded query; and of two values under one rounded box, a
        /// `remove` or `update` — even named by the other's `f64` box —
        /// acts on the value it names and leaves the other filed.
        #[test]
        fn rounded_boxes_cover_and_refind_exactly((q, boxes) in rounding_case()) {
            let mut tree = RStarTree::new();
            for (i, b) in boxes.iter().enumerate() {
                tree.insert(*b, i);
            }
            for (i, stored) in filed(&tree) {
                let b = boxes[i];
                prop_assert!(stored.contains(&b), "{stored:?} does not cover {b:?}");
                for k in 0..3 {
                    let (lo, hi) = (stored.min[k] as f32, stored.max[k] as f32);
                    prop_assert!(f64::from(lo) == stored.min[k] && f64::from(hi) == stored.max[k]);
                    prop_assert!(f64::from(lo.next_up()) > b.min[k], "{stored:?} is not tight on {b:?}");
                    prop_assert!(f64::from(hi.next_down()) < b.max[k], "{stored:?} is not tight on {b:?}");
                }
            }
            let mut got = tree.query_intersecting(&q);
            got.sort_unstable();
            for (i, b) in boxes.iter().enumerate() {
                prop_assert!(!b.intersects(&q) || got.binary_search(&i).is_ok(), "lost {i}");
            }
            let rounded = |held: &[(usize, Aabb3)]| -> Vec<usize> {
                held.iter()
                    .filter(|(_, b)| stored_box(b).intersects(&stored_box(&q)))
                    .map(|&(i, _)| i)
                    .collect()
            };
            let mut model: Vec<(usize, Aabb3)> = boxes.iter().copied().enumerate().collect();
            prop_assert_eq!(&got, &rounded(&model));

            // Twins: the second of each pair is removed by its own box,
            // or the first moved far away by the second's box.
            let far = Aabb3::new([3e7, 3e7, 3e7], [3e7 + 1.0; 3]);
            for j in 1..boxes.len() {
                if stored_box(&boxes[j]) != stored_box(&boxes[j - 1]) {
                    continue;
                }
                let i = j - 1;
                let (Some(ai), Some(aj)) = (
                    model.iter().position(|&(v, b)| v == i && b == boxes[i]),
                    model.iter().position(|&(v, _)| v == j),
                ) else {
                    continue;
                };
                if j % 2 == 0 {
                    prop_assert!(tree.remove(&boxes[j], &j));
                    model.remove(aj);
                } else {
                    prop_assert!(tree.update(&boxes[j], &i, far, i));
                    model[ai].1 = far;
                }
                prop_assert!(!tree.remove(&boxes[j], &usize::MAX));
            }
            let want: Vec<(usize, Aabb3)> =
                model.iter().map(|&(v, b)| (v, stored_box(&b))).collect();
            prop_assert_eq!(filed(&tree), want);
            let mut got = tree.query_intersecting(&q);
            got.sort_unstable();
            prop_assert_eq!(got, rounded(&model));
        }
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
