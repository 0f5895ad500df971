//! The route database: a collection of routes with id and spatial lookup.

use std::collections::HashMap;

use modb_geom::{Point, Rect};

use crate::error::RouteError;
use crate::route::{Route, RouteId};

/// A position expressed as (route, arc distance) — how the DBMS addresses
/// points in the paper's model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePosition {
    /// Which route the point is on.
    pub route: RouteId,
    /// Arc distance from the route's first vertex (miles).
    pub arc: f64,
}

/// The route database of the paper's §2: "the database stores a set of
/// routes".
#[derive(Debug, Clone, Default)]
pub struct RouteNetwork {
    routes: Vec<Route>,
    by_id: HashMap<RouteId, usize>,
}

impl RouteNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        RouteNetwork::default()
    }

    /// Builds a network from routes.
    ///
    /// # Errors
    ///
    /// [`RouteError::DuplicateRoute`] when two routes share an id.
    pub fn from_routes<I: IntoIterator<Item = Route>>(routes: I) -> Result<Self, RouteError> {
        let mut n = RouteNetwork::new();
        for r in routes {
            n.insert(r)?;
        }
        Ok(n)
    }

    /// Adds a route.
    ///
    /// # Errors
    ///
    /// [`RouteError::DuplicateRoute`] when the id is already present.
    pub fn insert(&mut self, route: Route) -> Result<(), RouteError> {
        if self.by_id.contains_key(&route.id()) {
            return Err(RouteError::DuplicateRoute(route.id()));
        }
        self.by_id.insert(route.id(), self.routes.len());
        self.routes.push(route);
        Ok(())
    }

    /// Number of routes.
    #[inline]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when no routes are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterator over all routes.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter()
    }

    /// Looks up a route by id.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownRoute`] when absent.
    pub fn get(&self, id: RouteId) -> Result<&Route, RouteError> {
        self.by_id
            .get(&id)
            .map(|&i| &self.routes[i])
            .ok_or(RouteError::UnknownRoute(id))
    }

    /// The (x, y) point addressed by a [`RoutePosition`].
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownRoute`] when the route is absent.
    pub fn resolve(&self, pos: RoutePosition) -> Result<Point, RouteError> {
        Ok(self.get(pos.route)?.point_at(pos.arc))
    }

    /// Route-distance between two route positions (§2): the distance along
    /// the route when both lie on the same route, and infinite otherwise —
    /// "if we define the route distance between two points on different
    /// routes to be infinite, then this will trigger a position update
    /// whenever the object changes routes".
    pub fn route_distance(&self, a: RoutePosition, b: RoutePosition) -> Result<f64, RouteError> {
        if a.route != b.route {
            // Validate both ids so dangling references still surface.
            self.get(a.route)?;
            self.get(b.route)?;
            return Ok(f64::INFINITY);
        }
        Ok(self.get(a.route)?.route_distance(a.arc, b.arc))
    }

    /// Bounding box of the whole network (empty rect for no routes).
    pub fn bbox(&self) -> Rect {
        self.routes
            .iter()
            .fold(Rect::empty(), |acc, r| acc.union(&r.bbox()))
    }

    /// The ids of all routes, in insertion order.
    pub fn route_ids(&self) -> Vec<RouteId> {
        self.routes.iter().map(|r| r.id()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_route_network() -> RouteNetwork {
        RouteNetwork::from_routes([
            Route::from_vertices(
                RouteId(1),
                "horizontal",
                vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            )
            .unwrap(),
            Route::from_vertices(
                RouteId(2),
                "vertical",
                vec![Point::new(5.0, 1.0), Point::new(5.0, 11.0)],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let n = two_route_network();
        assert_eq!(n.len(), 2);
        assert!(!n.is_empty());
        assert_eq!(n.get(RouteId(1)).unwrap().name(), "horizontal");
        assert!(matches!(
            n.get(RouteId(99)),
            Err(RouteError::UnknownRoute(RouteId(99)))
        ));
        assert_eq!(n.route_ids(), vec![RouteId(1), RouteId(2)]);
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut n = two_route_network();
        let dup = Route::from_vertices(
            RouteId(1),
            "dup",
            vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)],
        )
        .unwrap();
        assert!(matches!(
            n.insert(dup),
            Err(RouteError::DuplicateRoute(RouteId(1)))
        ));
    }

    #[test]
    fn resolve_positions() {
        let n = two_route_network();
        let p = n
            .resolve(RoutePosition {
                route: RouteId(2),
                arc: 4.0,
            })
            .unwrap();
        assert_eq!(p, Point::new(5.0, 5.0));
    }

    #[test]
    fn route_distance_same_and_cross_route() {
        let n = two_route_network();
        let a = RoutePosition {
            route: RouteId(1),
            arc: 2.0,
        };
        let b = RoutePosition {
            route: RouteId(1),
            arc: 9.0,
        };
        let c = RoutePosition {
            route: RouteId(2),
            arc: 0.0,
        };
        assert_eq!(n.route_distance(a, b).unwrap(), 7.0);
        assert_eq!(n.route_distance(a, c).unwrap(), f64::INFINITY);
        let dangling = RoutePosition {
            route: RouteId(42),
            arc: 0.0,
        };
        assert!(n.route_distance(a, dangling).is_err());
    }

    #[test]
    fn empty_network_errors() {
        let n = RouteNetwork::new();
        assert!(matches!(
            n.get(RouteId(1)),
            Err(RouteError::UnknownRoute(RouteId(1)))
        ));
        assert!(n.bbox().is_empty());
    }

    #[test]
    fn bbox_covers_all_routes() {
        let n = two_route_network();
        let b = n.bbox();
        assert_eq!(b.min, Point::new(0.0, 0.0));
        assert_eq!(b.max, Point::new(10.0, 11.0));
    }
}
