//! # modb-routes — the route database
//!
//! The paper (§2) models every moving object as travelling along a route
//! from a stored route database. This crate provides:
//!
//! - [`Route`]: a line spatial object with arc-length addressing and a
//!   travel [`Direction`] (the paper's binary `P.direction`).
//! - [`RouteNetwork`]: the route database, with id lookup and the paper's
//!   route-distance semantics — including the infinite cross-route
//!   distance that forces an update on route change (§3.1). Map matching
//!   projects a reported point onto the object's own route
//!   ([`Route::locate`]).
//! - [`generators`]: synthetic grid / radial / winding networks standing in
//!   for real map data (see DESIGN.md, substitution table).

#![warn(missing_docs)]

mod error;
pub mod generators;
mod network;
mod route;

pub use error::RouteError;
pub use network::{RouteNetwork, RoutePosition};
pub use route::{Direction, Route, RouteId};
