//! # modb-index — 3-D time-space indexing of position attributes
//!
//! Implements §4 of Wolfson et al. (ICDE 1998): answering range queries on
//! continuously moving objects in sublinear time without continuously
//! updating a spatial index.
//!
//! - [`RStarTree`]: a from-scratch 3-D R\*-tree over (x, y, t) boxes, with
//!   STR bulk loading and instrumented searches. Its slots store each box
//!   rounded outward to `f32` — a cover, which is all a filter needs.
//! - [`OPlane`]: the geometric body of one position-attribute value — the
//!   ruled surface between `l(t) = vt − BS(t)` and `u(t) = vt + BF(t)`
//!   along the route, decomposable into index boxes per time slab.
//! - [`QueryRegion`]: `R_G(t₀)` — polygon G lifted to time t₀ (Theorems
//!   5–6), plus a time-interval extension.
//! - [`MovingObjectIndex`]: o-plane maintenance (§4.2's delete-old /
//!   insert-new on every position update) and candidate filtering, over
//!   one R\*-tree of per-object union boxes — and the fleet's keyed
//!   table: one shared [`Entry`] per key carries a payload (`modb-core`'s
//!   moving object), so a tree hit needs no lookup. The plane is derived
//!   from the payload, not stored, and so is the box a write looks the
//!   superseded entry up by: the box is kept once, in the tree's leaf.
//!   The table is a copy-on-write hash map (`CowMap`, private to this
//!   crate) whose buckets hold only the entry pointers and read each key
//!   through its entry; it and the tree, whose every node is one
//!   allocation, are path-copying, so a clone of the index is O(1) and
//!   shares everything no write has touched since.
//!
//! Exact may/must refinement lives in `modb-core`, which can resolve
//! routes; the index layer guarantees no false negatives.

#![warn(missing_docs)]

mod cow_map;
mod error;
mod moving_index;
mod oplane;
mod rtree;
mod timespace;

pub use error::IndexError;
pub use moving_index::{Entry, Filing, MovingObjectIndex, DEFAULT_SLAB_MINUTES};
pub use oplane::OPlane;
pub use rtree::{stored_box, RStarTree, SearchStats};
pub use timespace::{within_radius, QueryRegion};
