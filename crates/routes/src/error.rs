//! Errors for route and network construction and lookup.

use modb_geom::GeomError;
use std::fmt;

use crate::route::RouteId;

/// Errors raised by the route layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// The referenced route does not exist in the network.
    UnknownRoute(RouteId),
    /// A route with this id already exists in the network.
    DuplicateRoute(RouteId),
    /// Underlying geometric failure (degenerate polyline etc.).
    Geom(GeomError),
    /// A generator was asked for an impossible configuration (e.g. a 0×0
    /// grid).
    InvalidGenerator(String),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::UnknownRoute(id) => write!(f, "unknown route {id:?}"),
            RouteError::DuplicateRoute(id) => write!(f, "duplicate route {id:?}"),
            RouteError::Geom(e) => write!(f, "geometry error: {e}"),
            RouteError::InvalidGenerator(msg) => write!(f, "invalid generator config: {msg}"),
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::Geom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for RouteError {
    fn from(e: GeomError) -> Self {
        RouteError::Geom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = RouteError::UnknownRoute(RouteId(7));
        assert!(e.to_string().contains("unknown route"));
        let g: RouteError = GeomError::ZeroLength.into();
        assert!(g.source().is_some());
        assert!(RouteError::DuplicateRoute(RouteId(7)).source().is_none());
    }
}
