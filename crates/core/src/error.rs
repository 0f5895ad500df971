//! Errors for the moving-objects DBMS.

use modb_geom::GeomError;
use modb_index::IndexError;
use modb_policy::PolicyError;
use modb_routes::RouteError;
use std::fmt;

use crate::object::ObjectId;

/// Errors raised by the DBMS layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The referenced object does not exist.
    UnknownObject(ObjectId),
    /// An object with this id already exists.
    DuplicateObject(ObjectId),
    /// An update message referenced a position off every route (projection
    /// distance above the map-matching tolerance).
    OffRoute {
        /// Distance from the nearest route (miles).
        distance: f64,
        /// Map-matching tolerance (miles).
        tolerance: f64,
    },
    /// An update arrived with a timestamp earlier than the stored one.
    StaleUpdate {
        /// Stored `P.starttime`.
        stored: f64,
        /// The update's timestamp.
        received: f64,
    },
    /// An invalid numeric field in an update or query.
    InvalidField(&'static str, f64),
    /// Route-layer failure.
    Route(RouteError),
    /// Index-layer failure.
    Index(IndexError),
    /// Policy-layer failure.
    Policy(PolicyError),
    /// Geometry failure.
    Geom(GeomError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownObject(id) => write!(f, "unknown object {id:?}"),
            CoreError::DuplicateObject(id) => write!(f, "duplicate object {id:?}"),
            CoreError::OffRoute {
                distance,
                tolerance,
            } => write!(
                f,
                "position is {distance} miles from the nearest route (tolerance {tolerance})"
            ),
            CoreError::StaleUpdate { stored, received } => write!(
                f,
                "stale update: received t={received} but stored starttime is {stored}"
            ),
            CoreError::InvalidField(name, v) => write!(f, "invalid field `{name}`: {v}"),
            CoreError::Route(e) => write!(f, "route error: {e}"),
            CoreError::Index(e) => write!(f, "index error: {e}"),
            CoreError::Policy(e) => write!(f, "policy error: {e}"),
            CoreError::Geom(e) => write!(f, "geometry error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Route(e) => Some(e),
            CoreError::Index(e) => Some(e),
            CoreError::Policy(e) => Some(e),
            CoreError::Geom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouteError> for CoreError {
    fn from(e: RouteError) -> Self {
        CoreError::Route(e)
    }
}

impl From<IndexError> for CoreError {
    fn from(e: IndexError) -> Self {
        CoreError::Index(e)
    }
}

impl From<PolicyError> for CoreError {
    fn from(e: PolicyError) -> Self {
        CoreError::Policy(e)
    }
}

impl From<GeomError> for CoreError {
    fn from(e: GeomError) -> Self {
        CoreError::Geom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        use std::error::Error;
        let e: CoreError = RouteError::UnknownRoute(modb_routes::RouteId(7)).into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("route error"));
        let e = CoreError::OffRoute {
            distance: 2.0,
            tolerance: 0.5,
        };
        assert!(e.to_string().contains("2 miles"));
        let e = CoreError::StaleUpdate {
            stored: 5.0,
            received: 4.0,
        };
        assert!(e.to_string().contains("t=4"));
        assert!(e.source().is_none());
    }
}
