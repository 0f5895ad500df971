//! Errors for the time-space index layer.

use modb_geom::GeomError;
use std::fmt;

/// Errors raised when building o-planes or maintaining the index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// An o-plane parameter (speed, cost, times) was invalid.
    InvalidParameter(&'static str, f64),
    /// The o-plane's time span is empty (`end_time ≤ start_time`).
    EmptyTimeSpan {
        /// Plane start time.
        start: f64,
        /// Plane end (cutoff) time.
        end: f64,
    },
    /// The route passed for geometry resolution is not the plane's route.
    RouteMismatch,
    /// An entry was not in the tree under the box derived from its
    /// payload: the payload no longer derives the plane it was filed
    /// under. The write that looked for it changed nothing.
    Misfiled,
    /// Underlying geometry failure.
    Geom(GeomError),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::InvalidParameter(name, v) => {
                write!(f, "o-plane parameter `{name}` invalid: {v}")
            }
            IndexError::EmptyTimeSpan { start, end } => {
                write!(f, "o-plane time span empty: [{start}, {end}]")
            }
            IndexError::RouteMismatch => write!(f, "route does not match the o-plane's route id"),
            IndexError::Misfiled => {
                write!(f, "entry not found under the box derived from its payload")
            }
            IndexError::Geom(e) => write!(f, "geometry error: {e}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Geom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for IndexError {
    fn from(e: GeomError) -> Self {
        IndexError::Geom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = IndexError::InvalidParameter("speed", -1.0);
        assert!(e.to_string().contains("speed"));
        let g: IndexError = GeomError::ZeroLength.into();
        assert!(matches!(g, IndexError::Geom(_)));
        assert!(IndexError::EmptyTimeSpan {
            start: 2.0,
            end: 1.0
        }
        .to_string()
        .contains("[2, 1]"));
    }
}
