//! # modb-geom — geometric substrate for the moving-objects database
//!
//! Geometry kernel for the `modb` workspace, which reproduces Wolfson et
//! al., *"Cost and Imprecision in Modeling the Position of Moving Objects"*
//! (ICDE 1998). The paper models routes as piecewise-linear curves in the
//! plane, query regions as polygons, and the index space as 3-D (x, y, t)
//! time-space; this crate supplies those primitives:
//!
//! - [`Point`]: 2-D points/vectors.
//! - [`Segment`]: line segments with robust intersection predicates.
//! - [`Polyline`]: arc-length-parameterised routes — the paper's
//!   route-distance arithmetic (§2).
//! - [`Polygon`]: simple polygons with the may/must path predicates that
//!   back Theorems 5–6 (§4).
//! - [`Rect`] / [`Aabb3`]: 2-D and 3-D axis-aligned boxes for the spatial
//!   index.
//!
//! ## Conventions
//!
//! Distances are **miles**, time is **minutes** (matching the paper's
//! Example 1), all scalars are `f64`. Geometric predicates use the
//! tolerance [`EPS`].

#![warn(missing_docs)]

mod aabb3;
mod bbox;
mod error;
mod point;
mod polygon;
mod polyline;
mod segment;

pub use aabb3::Aabb3;
pub use bbox::Rect;
pub use error::GeomError;
pub use point::{Point, EPS};
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use segment::{intersection_params, orient, segments_intersect, Segment};
