//! The record the object table keeps for each moving object.
//!
//! [`MovingObject`] is what comes in (a registration, a log record, a
//! snapshot record) and what goes out (an API answer); [`Resident`] is
//! what stays: the same fields without the id, which is the table
//! entry's key, with the start position kept once (as route + arc, not
//! also as a point), the trip end unboxed and a short name inline. 80 B,
//! so an entry with its key is 88 B and its `Arc` a 112-B malloc chunk,
//! with no second chunk for a name of up to 14 bytes.

use std::fmt;

use modb_routes::Route;

use crate::attr::CompactAttribute;
use crate::database::MovingObject;
use crate::object::ObjectId;

/// The longest name kept inline, in bytes: a [`Name`] is 16 bytes, one
/// of them the length and one the enum's tag.
const INLINE_NAME: usize = 14;

/// A vehicle's name in 16 bytes: up to [`INLINE_NAME`] bytes of UTF-8
/// inline, a longer name behind a thin pointer (a `Box<str>` is a fat
/// one, 16 bytes by itself).
#[derive(Clone)]
enum Name {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Heap(Box<Box<str>>),
}

impl Name {
    fn new(name: &str) -> Self {
        if name.len() > INLINE_NAME {
            return Name::Heap(Box::new(name.into()));
        }
        let mut bytes = [0; INLINE_NAME];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        Name::Inline {
            len: name.len() as u8,
            bytes,
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Name::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline name is a copy of a whole str"),
            Name::Heap(name) => name,
        }
    }
}

/// A moving object as the table keeps it, under its id.
#[derive(Clone)]
pub(crate) struct Resident {
    /// The position attribute less its start point, borrowed as is by
    /// every query.
    pub(crate) attr: CompactAttribute,
    /// Maximum trip speed `V` (§3.3).
    pub(crate) max_speed: f64,
    /// Trip-end time `Z`, NaN for none: registration refuses a
    /// non-finite trip end, so NaN is free to mean "none".
    trip_end: f64,
    name: Name,
}

impl Resident {
    /// Splits a registration into its id and the record kept under it.
    /// The caller has refused a non-finite trip end.
    pub(crate) fn new(obj: MovingObject) -> (ObjectId, Resident) {
        debug_assert!(obj.trip_end.is_none_or(f64::is_finite));
        let resident = Resident {
            name: Name::new(&obj.name),
            attr: CompactAttribute::new(&obj.attr),
            max_speed: obj.max_speed,
            trip_end: obj.trip_end.unwrap_or(f64::NAN),
        };
        (obj.id, resident)
    }

    /// The same record with a new attribute (a position update).
    pub(crate) fn with_attr(&self, attr: CompactAttribute) -> Resident {
        Resident {
            attr,
            ..self.clone()
        }
    }

    /// Known trip-end time `Z`, if any (§4.2 cutoff).
    pub(crate) fn trip_end(&self) -> Option<f64> {
        (!self.trip_end.is_nan()).then_some(self.trip_end)
    }

    /// The human-readable name.
    pub(crate) fn name(&self) -> &str {
        self.name.as_str()
    }

    /// The API's form of the record stored under `id`, its start point
    /// built on `route`, the one its attribute names.
    pub(crate) fn to_object(&self, id: ObjectId, route: &Route) -> MovingObject {
        MovingObject {
            id,
            name: self.name().to_owned(),
            attr: self.attr.to_attribute(route),
            max_speed: self.max_speed,
            trip_end: self.trip_end(),
        }
    }
}

impl fmt::Debug for Resident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resident")
            .field("name", &self.name())
            .field("attr", &self.attr)
            .field("max_speed", &self.max_speed)
            .field("trip_end", &self.trip_end())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_is_16_bytes_and_inline_up_to_14() {
        assert_eq!(std::mem::size_of::<Name>(), 16);
        for name in [
            "",
            "veh-1",
            "abcdefghijklmn",
            "abcdefghijklmno",
            "veh-1234567890123",
        ] {
            let kept = Name::new(name);
            assert_eq!(kept.as_str(), name);
            assert_eq!(
                matches!(kept, Name::Inline { .. }),
                name.len() <= INLINE_NAME,
                "{name:?}"
            );
        }
        // 13 ASCII bytes and one 2-byte character: 15 bytes, on the heap;
        // one ASCII byte fewer fits. Seven 2-byte characters fit exactly,
        // and so do four 3-byte ones and a 2-byte one.
        for (name, inline) in [
            ("a".repeat(13) + "é", false),
            ("a".repeat(12) + "é", true),
            ("é".repeat(7), true),
            ("é".repeat(8), false),
            ("€".repeat(4) + "é", true),
            ("€".repeat(5), false),
        ] {
            let kept = Name::new(&name);
            assert_eq!(kept.as_str(), name);
            assert_eq!(matches!(kept, Name::Inline { .. }), inline, "{name:?}");
        }
    }
}
