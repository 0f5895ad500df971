//! Hand-rolled binary codecs for the DBMS types that flow through the log
//! and snapshots.
//!
//! The format is little-endian, length-prefixed where variable-sized, and
//! deliberately boring: no compression, no varints, no self-description.
//! Integrity is the frame CRC's job ([`crate::crc32()`]); versioning is the
//! container header's job (segment/snapshot magic + version). `f64`s are
//! stored as raw IEEE-754 bits, so encode→decode round-trips are exact —
//! including NaN payloads — which the property tests rely on.

use modb_core::{
    DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute, StationaryObject,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId};

use crate::error::WalError;

/// Cursor over a byte buffer being decoded.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WalError> {
        if self.remaining() < n {
            return Err(WalError::Decode(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1, "u8 underflow")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WalError> {
        let b = self.take(4, "u32 underflow")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WalError> {
        let b = self.take(8, "u64 underflow")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` stored as raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        self.take(n, "bytes underflow")
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WalError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string underflow")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WalError::Decode("invalid utf-8"))
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as raw IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an LEB128 varint (7 bits per byte, little-endian groups,
/// high bit = continuation). Small values — record counts, lengths and
/// most object ids — cost one byte.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads an LEB128 varint written by [`put_varint`].
///
/// # Errors
///
/// [`WalError::Decode`] on buffer underflow or a varint longer than the
/// 10 bytes a `u64` can need.
pub(crate) fn read_varint(r: &mut ByteReader<'_>) -> Result<u64, WalError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.u8().map_err(|_| WalError::Decode("varint underflow"))?;
        if shift == 63 && b > 1 {
            return Err(WalError::Decode("varint overflow"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WalError::Decode("varint overflow"));
        }
    }
}

/// ZigZag-maps a signed value so small magnitudes (of either sign)
/// become small varints: 0, -1, 1, -2, … → 0, 1, 2, 3, …
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A type with a binary wire form.
pub trait WalCodec: Sized {
    /// Appends the binary form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the reader.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError>;
}

impl WalCodec for Point {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.x);
        put_f64(out, self.y);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        Ok(Point::new(r.f64()?, r.f64()?))
    }
}

impl WalCodec for RouteId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        Ok(RouteId(r.u64()?))
    }
}

impl WalCodec for ObjectId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        Ok(ObjectId(r.u64()?))
    }
}

impl WalCodec for Direction {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.to_bit());
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        match r.u8()? {
            0 => Ok(Direction::Forward),
            1 => Ok(Direction::Backward),
            _ => Err(WalError::Decode("bad direction tag")),
        }
    }
}

impl WalCodec for BoundKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            BoundKind::Delayed => 0,
            BoundKind::Immediate => 1,
        });
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        match r.u8()? {
            0 => Ok(BoundKind::Delayed),
            1 => Ok(BoundKind::Immediate),
            _ => Err(WalError::Decode("bad bound-kind tag")),
        }
    }
}

impl WalCodec for PolicyDescriptor {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            PolicyDescriptor::CostBased { kind, update_cost } => {
                out.push(0);
                kind.encode(out);
                put_f64(out, update_cost);
            }
            PolicyDescriptor::FixedBound { bound } => {
                out.push(1);
                put_f64(out, bound);
            }
            PolicyDescriptor::Unbounded => out.push(2),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        match r.u8()? {
            0 => Ok(PolicyDescriptor::CostBased {
                kind: BoundKind::decode(r)?,
                update_cost: r.f64()?,
            }),
            1 => Ok(PolicyDescriptor::FixedBound { bound: r.f64()? }),
            2 => Ok(PolicyDescriptor::Unbounded),
            _ => Err(WalError::Decode("bad policy tag")),
        }
    }
}

impl WalCodec for UpdatePosition {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            UpdatePosition::Arc(a) => {
                out.push(0);
                put_f64(out, a);
            }
            UpdatePosition::Coordinates(p) => {
                out.push(1);
                p.encode(out);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        match r.u8()? {
            0 => Ok(UpdatePosition::Arc(r.f64()?)),
            1 => Ok(UpdatePosition::Coordinates(Point::decode(r)?)),
            _ => Err(WalError::Decode("bad update-position tag")),
        }
    }
}

fn put_option<T: WalCodec>(out: &mut Vec<u8>, v: &Option<T>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            v.encode(out);
        }
    }
}

fn get_option<T: WalCodec>(r: &mut ByteReader<'_>) -> Result<Option<T>, WalError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(T::decode(r)?)),
        _ => Err(WalError::Decode("bad option tag")),
    }
}

/// `Option<f64>` helper (no blanket impl for `f64` to keep the primitive
/// helpers free-standing).
fn put_option_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
    }
}

fn get_option_f64(r: &mut ByteReader<'_>) -> Result<Option<f64>, WalError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        _ => Err(WalError::Decode("bad option tag")),
    }
}

impl WalCodec for UpdateMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.time);
        self.position.encode(out);
        put_f64(out, self.speed);
        put_option(out, &self.route);
        put_option(out, &self.direction);
        put_option(out, &self.policy);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        Ok(UpdateMessage {
            time: r.f64()?,
            position: UpdatePosition::decode(r)?,
            speed: r.f64()?,
            route: get_option(r)?,
            direction: get_option(r)?,
            policy: get_option(r)?,
        })
    }
}

impl WalCodec for PositionAttribute {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.start_time);
        self.route.encode(out);
        self.start_position.encode(out);
        put_f64(out, self.start_arc);
        self.direction.encode(out);
        put_f64(out, self.speed);
        self.policy.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        Ok(PositionAttribute {
            start_time: r.f64()?,
            route: RouteId::decode(r)?,
            start_position: Point::decode(r)?,
            start_arc: r.f64()?,
            direction: Direction::decode(r)?,
            speed: r.f64()?,
            policy: PolicyDescriptor::decode(r)?,
        })
    }
}

impl WalCodec for MovingObject {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        put_string(out, &self.name);
        self.attr.encode(out);
        put_f64(out, self.max_speed);
        put_option_f64(out, self.trip_end);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        Ok(MovingObject {
            id: ObjectId::decode(r)?,
            name: r.string()?,
            attr: PositionAttribute::decode(r)?,
            max_speed: r.f64()?,
            trip_end: get_option_f64(r)?,
        })
    }
}

impl WalCodec for StationaryObject {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        put_string(out, &self.name);
        self.position.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        Ok(StationaryObject::new(
            ObjectId::decode(r)?,
            r.string()?,
            Point::decode(r)?,
        ))
    }
}

impl WalCodec for Route {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id().encode(out);
        put_string(out, self.name());
        let vertices = self.polyline().vertices();
        put_u32(out, vertices.len() as u32);
        for v in vertices {
            v.encode(out);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        let id = RouteId::decode(r)?;
        let name = r.string()?;
        let n = r.u32()? as usize;
        // Cap pre-allocation: a corrupt count must not OOM before the
        // per-point underflow checks catch it.
        let mut vertices = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            vertices.push(Point::decode(r)?);
        }
        Route::from_vertices(id, name, vertices)
            .map_err(|_| WalError::Decode("invalid route geometry"))
    }
}

impl WalCodec for DatabaseConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.map_match_tolerance);
        put_f64(out, self.default_horizon);
        put_f64(out, self.bands);
        put_f64(out, self.refinement_dt);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        let map_match_tolerance = r.f64()?;
        let default_horizon = r.f64()?;
        let slab_minutes = r.f64()?;
        if !slab_minutes.is_finite() || slab_minutes <= 0.0 {
            return Err(WalError::Decode("invalid slab duration"));
        }
        Ok(DatabaseConfig {
            map_match_tolerance,
            default_horizon,
            bands: slab_minutes,
            refinement_dt: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WalCodec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = T::decode(&mut r).unwrap();
        assert_eq!(back, v);
        assert!(r.is_empty(), "trailing bytes after {v:?}");
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX);
        put_f64(&mut buf, -0.0);
        put_string(&mut buf, "véhicule");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.string().unwrap(), "véhicule");
        assert!(r.is_empty());
    }

    #[test]
    fn underflow_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.u32().is_err());
        let mut r = ByteReader::new(&[5, 0, 0, 0, b'a']);
        assert!(r.string().is_err(), "declared length exceeds buffer");
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(Point::new(1.5, -2.5));
        round_trip(RouteId(42));
        round_trip(ObjectId(7));
        round_trip(Direction::Backward);
        round_trip(PolicyDescriptor::CostBased {
            kind: BoundKind::Immediate,
            update_cost: 5.0,
        });
        round_trip(PolicyDescriptor::FixedBound { bound: 0.25 });
        round_trip(PolicyDescriptor::Unbounded);
        round_trip(UpdatePosition::Arc(3.25));
        round_trip(UpdatePosition::Coordinates(Point::new(0.0, -1.0)));
        round_trip(
            UpdateMessage::route_change(
                6.0,
                RouteId(3),
                UpdatePosition::Coordinates(Point::new(1.0, 2.0)),
                Direction::Backward,
                0.5,
            )
            .with_policy(PolicyDescriptor::Unbounded),
        );
        round_trip(UpdateMessage::basic(1.0, UpdatePosition::Arc(2.0), 3.0));
        round_trip(PositionAttribute {
            start_time: 10.0,
            route: RouteId(1),
            start_position: Point::new(3.0, 4.0),
            start_arc: 5.0,
            direction: Direction::Forward,
            speed: 0.9,
            policy: PolicyDescriptor::CostBased {
                kind: BoundKind::Delayed,
                update_cost: 2.0,
            },
        });
        round_trip(MovingObject {
            id: ObjectId(9),
            name: "veh-09".into(),
            attr: PositionAttribute {
                start_time: 0.0,
                route: RouteId(1),
                start_position: Point::new(0.0, 0.0),
                start_arc: 0.0,
                direction: Direction::Forward,
                speed: 1.0,
                policy: PolicyDescriptor::Unbounded,
            },
            max_speed: 1.5,
            trip_end: Some(240.0),
        });
        round_trip(StationaryObject::new(
            ObjectId(1),
            "depot",
            Point::new(1.0, 2.0),
        ));
    }

    #[test]
    fn route_round_trip() {
        let route = Route::from_vertices(
            RouteId(3),
            "bent",
            vec![
                Point::new(0.0, 0.0),
                Point::new(5.0, 5.0),
                Point::new(10.0, 0.0),
            ],
        )
        .unwrap();
        round_trip(route);
    }

    #[test]
    fn config_round_trip() {
        round_trip(DatabaseConfig::default());
        round_trip(DatabaseConfig {
            map_match_tolerance: 0.1,
            default_horizon: 90.0,
            bands: 2.0,
            refinement_dt: 0.5,
        });
    }

    /// A config is its four fields in order, and a slab duration no
    /// index can use is refused.
    #[test]
    fn config_is_four_fields() {
        let bytes = |slab: f64| -> Vec<u8> {
            [0.25, 60.0, slab, 1.0]
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect()
        };
        let mut encoded = Vec::new();
        DatabaseConfig::default().encode(&mut encoded);
        assert_eq!(encoded, bytes(5.0));
        let mut r = ByteReader::new(&encoded);
        assert_eq!(
            DatabaseConfig::decode(&mut r).unwrap(),
            DatabaseConfig::default()
        );
        assert!(r.is_empty());
        assert!(DatabaseConfig::decode(&mut ByteReader::new(&encoded[..31])).is_err());
        for slab in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            match DatabaseConfig::decode(&mut ByteReader::new(&bytes(slab))) {
                Err(WalError::Decode(reason)) => assert!(reason.contains("slab"), "{reason}"),
                other => panic!("slab {slab}: expected a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn nan_time_round_trips_bit_exact() {
        let msg = UpdateMessage::basic(f64::NAN, UpdatePosition::Arc(1.0), 1.0);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let back = UpdateMessage::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back.time.to_bits(), msg.time.to_bits());
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(Direction::decode(&mut ByteReader::new(&[9])).is_err());
        assert!(PolicyDescriptor::decode(&mut ByteReader::new(&[9])).is_err());
        assert!(UpdatePosition::decode(&mut ByteReader::new(&[9])).is_err());
        assert!(BoundKind::decode(&mut ByteReader::new(&[9])).is_err());
    }

    #[test]
    fn varints_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut r = ByteReader::new(&buf);
            assert_eq!(read_varint(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
        assert_eq!(
            {
                let mut b = Vec::new();
                put_varint(&mut b, 0);
                b.len()
            },
            1,
            "small values cost one byte"
        );
        // Underflow and over-long encodings are rejected.
        assert!(read_varint(&mut ByteReader::new(&[0x80])).is_err());
        assert!(read_varint(&mut ByteReader::new(&[0xff; 11])).is_err());
    }

    #[test]
    fn zigzag_round_trips_and_orders_by_magnitude() {
        for v in [0i64, -1, 1, -2, 2, 1_000, -1_000, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-1) < zigzag(2));
        assert_eq!(zigzag(0), 0);
    }
}
