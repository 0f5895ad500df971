//! Property tests for the durability layer.
//!
//! - Codec round trips: random `UpdateMessage`s and `PositionAttribute`s
//!   survive encode → decode unchanged (including non-finite floats,
//!   which round-trip bit-exactly).
//! - Crash recovery: a random update stream is logged, the log is cut at
//!   an arbitrary byte (the torn tail a crash leaves), and the recovered
//!   database must equal a reference rebuild from the surviving whole
//!   frames — same objects, same attributes, same query answers.

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_wal::{
    decode_block_frames, list_segments, recover, write_snapshot, ByteReader, EpochHistory,
    WalCodec, WalOptions, WalRecord, WalWriter,
};
use proptest::prelude::*;

const ROUTE_LEN: f64 = 100.0;

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Forward), Just(Direction::Backward)]
}

fn policy() -> impl Strategy<Value = PolicyDescriptor> {
    prop_oneof![
        (any::<bool>(), 0.1f64..100.0).prop_map(|(imm, c)| PolicyDescriptor::CostBased {
            kind: if imm {
                BoundKind::Immediate
            } else {
                BoundKind::Delayed
            },
            update_cost: c,
        }),
        (0.0f64..10.0).prop_map(|b| PolicyDescriptor::FixedBound { bound: b }),
        Just(PolicyDescriptor::Unbounded),
    ]
}

fn update_position() -> impl Strategy<Value = UpdatePosition> {
    prop_oneof![
        (0.0f64..ROUTE_LEN).prop_map(UpdatePosition::Arc),
        (-200.0f64..200.0, -200.0f64..200.0)
            .prop_map(|(x, y)| UpdatePosition::Coordinates(Point::new(x, y))),
    ]
}

fn update_message() -> impl Strategy<Value = UpdateMessage> {
    (
        -100.0f64..100.0,
        update_position(),
        0.0f64..5.0,
        proptest::option::of((1u64..100).prop_map(RouteId)),
        proptest::option::of(direction()),
        proptest::option::of(policy()),
    )
        .prop_map(
            |(time, position, speed, route, direction, policy)| UpdateMessage {
                time,
                position,
                speed,
                route,
                direction,
                policy,
            },
        )
}

fn position_attribute() -> impl Strategy<Value = PositionAttribute> {
    (
        -100.0f64..100.0,
        1u64..100,
        (-200.0f64..200.0, -200.0f64..200.0),
        0.0f64..ROUTE_LEN,
        direction(),
        0.0f64..5.0,
        policy(),
    )
        .prop_map(
            |(start_time, route, (x, y), start_arc, direction, speed, policy)| PositionAttribute {
                start_time,
                route: RouteId(route),
                start_position: Point::new(x, y),
                start_arc,
                direction,
                speed,
                policy,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn update_message_round_trips(msg in update_message()) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let mut r = ByteReader::new(&buf);
        let decoded = UpdateMessage::decode(&mut r).expect("decodes");
        prop_assert!(r.is_empty(), "decode must consume everything");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn position_attribute_round_trips(attr in position_attribute()) {
        let mut buf = Vec::new();
        attr.encode(&mut buf);
        let mut r = ByteReader::new(&buf);
        let decoded = PositionAttribute::decode(&mut r).expect("decodes");
        prop_assert!(r.is_empty(), "decode must consume everything");
        prop_assert_eq!(decoded, attr);
    }

    #[test]
    fn floats_round_trip_bit_exactly(bits in any::<u64>()) {
        // NaNs and infinities included: the codec stores raw IEEE-754
        // bits, so re-encoding the decoded value reproduces the bytes.
        let msg = UpdateMessage::basic(
            f64::from_bits(bits),
            UpdatePosition::Arc(f64::from_bits(bits ^ 0x5555)),
            f64::from_bits(bits.rotate_left(17)),
        );
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let decoded = UpdateMessage::decode(&mut ByteReader::new(&buf)).expect("decodes");
        let mut buf2 = Vec::new();
        decoded.encode(&mut buf2);
        prop_assert_eq!(buf, buf2);
    }
}

// ---------------------------------------------------------------------
// Crash-recovery property
// ---------------------------------------------------------------------

fn network() -> RouteNetwork {
    RouteNetwork::from_routes([Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
    )
    .unwrap()])
    .unwrap()
}

fn vehicle(id: u64, arc: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        name: format!("veh-{id}"),
        attr: PositionAttribute {
            start_time: 0.0,
            route: RouteId(1),
            start_position: Point::new(arc, 0.0),
            start_arc: arc,
            direction: Direction::Forward,
            speed: 1.0,
            policy: PolicyDescriptor::CostBased {
                kind: BoundKind::Immediate,
                update_cost: 5.0,
            },
        },
        max_speed: 1.5,
        trip_end: None,
    }
}

fn apply(db: &mut Database, rec: &WalRecord) {
    match rec {
        WalRecord::RegisterMoving(obj) => {
            let _ = db.register_moving(obj.clone());
        }
        WalRecord::InsertStationary(obj) => {
            let _ = db.insert_stationary(obj.clone());
        }
        WalRecord::Update { id, msg } => {
            let _ = db.apply_update(*id, msg);
        }
        WalRecord::RemoveMoving(id) => {
            let _ = db.remove_moving(*id);
        }
        WalRecord::InsertRoute(route) => {
            let _ = db.insert_route(route.clone());
        }
        WalRecord::LeaderEpoch { .. } | WalRecord::SnapshotHead { .. } => {}
    }
}

fn assert_equivalent(a: &Database, b: &Database) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.moving_count(), b.moving_count());
    let mut ids: Vec<ObjectId> = a.moving_ids().collect();
    ids.sort_unstable();
    let mut b_ids: Vec<ObjectId> = b.moving_ids().collect();
    b_ids.sort_unstable();
    prop_assert_eq!(&ids, &b_ids);
    for &id in &ids {
        prop_assert_eq!(a.moving(id).unwrap(), b.moving(id).unwrap());
        for t in [0.0, 7.5, 20.0] {
            prop_assert_eq!(a.position_of(id, t).unwrap(), b.position_of(id, t).unwrap());
        }
    }
    // Range answers (the index path) must agree too.
    use modb_geom::{Polygon, Rect};
    use modb_index::QueryRegion;
    for t in [0.0, 10.0] {
        let g = Polygon::rectangle(&Rect::new(
            Point::new(0.0, -5.0),
            Point::new(ROUTE_LEN, 5.0),
        ))
        .unwrap();
        let ra = a
            .range_query(&QueryRegion::at_instant(g.clone(), t))
            .unwrap();
        let rb = b.range_query(&QueryRegion::at_instant(g, t)).unwrap();
        prop_assert_eq!(ra.must, rb.must);
        prop_assert_eq!(ra.may, rb.may);
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct CrashSpec {
    n_objects: u64,
    // (object index offset, time, arc fraction, speed)
    updates: Vec<(u64, f64, f64, f64)>,
    // Where the crash cuts the log file, as a fraction of its length.
    cut_frac: f64,
}

fn crash_spec() -> impl Strategy<Value = CrashSpec> {
    (
        1u64..6,
        proptest::collection::vec((0u64..7, 0.0f64..30.0, 0.0f64..1.0, 0.0f64..1.4), 0..40),
        0.0f64..1.0,
    )
        .prop_map(|(n_objects, updates, cut_frac)| CrashSpec {
            n_objects,
            updates,
            cut_frac,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Log N random updates (some stale, some addressed to unknown
    /// objects), kill the process mid-write by truncating the log at an
    /// arbitrary byte, recover, and check the result equals a reference
    /// database rebuilt from the frames that survived the cut.
    #[test]
    fn recovery_after_torn_tail_matches_reference(spec in crash_spec(), case in 0u64..u64::MAX) {
        let dir = std::env::temp_dir().join(format!(
            "modb-wal-prop-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Build the log: registrations, then the random update stream.
        let config = DatabaseConfig::default();
        let empty = Database::new(network(), config);
        let mut writer = WalWriter::create(&dir, WalOptions::default()).unwrap();
        write_snapshot(&dir, &empty, &EpochHistory::new(), 0).unwrap();
        let mut records: Vec<WalRecord> = (0..spec.n_objects)
            .map(|i| WalRecord::RegisterMoving(vehicle(i, i as f64 * 10.0)))
            .collect();
        records.extend(spec.updates.iter().map(|&(off, time, arc_frac, speed)| {
            WalRecord::Update {
                // off can exceed the fleet size: unknown-object updates
                // are logged and rejected, live and on replay alike.
                id: ObjectId(off),
                msg: UpdateMessage::basic(
                    time,
                    UpdatePosition::Arc(arc_frac * ROUTE_LEN),
                    speed,
                ),
            }
        }));
        for rec in &records {
            writer.append(rec).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);

        // Crash: cut the (single) segment at an arbitrary byte.
        let segments = list_segments(&dir).unwrap();
        prop_assert_eq!(segments.len(), 1);
        let path = &segments[0].1;
        let full = std::fs::read(path).unwrap();
        let cut = (full.len() as f64 * spec.cut_frac) as usize;
        std::fs::write(path, &full[..cut]).unwrap();

        let recovered = recover(&dir).unwrap();

        // Reference: replay exactly the whole frames that survived (the
        // default format is v2, one block per frame — see wal_v2.rs for
        // the mixed-version variants of this property).
        const HEADER: usize = modb_wal::segment::SEGMENT_HEADER_BYTES as usize;
        let (surviving, _, _) = if cut > HEADER {
            decode_block_frames(&full[HEADER..cut])
        } else {
            // The cut ate the segment header: recovery deletes the file
            // and starts from the (empty) snapshot.
            (Vec::new(), 0, modb_wal::FrameEnd::Clean)
        };
        let mut reference = Database::new(network(), config);
        for rec in &surviving {
            apply(&mut reference, rec);
        }

        prop_assert_eq!(recovered.report.next_lsn, surviving.len() as u64);
        prop_assert_eq!(
            recovered.report.replayed + recovered.report.rejected,
            surviving.len() as u64
        );
        assert_equivalent(&recovered.database, &reference)?;

        // Recovery is idempotent: a second run sees a clean tail.
        let again = recover(&dir).unwrap();
        prop_assert_eq!(again.report.truncated_bytes, 0);
        prop_assert_eq!(again.report.next_lsn, recovered.report.next_lsn);
        assert_equivalent(&again.database, &reference)?;

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
