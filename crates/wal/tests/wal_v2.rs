//! Integration tests for the block WAL format: segments of any other
//! header version refused without being touched, the block codec under
//! adversarial record streams, crash cuts landing inside compressed
//! blocks, the frame scan under every truncation and bit flip, and a log
//! that does not continue its snapshot refused.

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_wal::{
    decode_block, decode_block_frames, encode_block, list_segments, recover, scan_segment,
    write_snapshot, EpochHistory, FrameEnd, SegmentTailer, WalBatch, WalError, WalOptions,
    WalRecord, WalWriter,
};
use proptest::prelude::*;
use std::path::PathBuf;

const ROUTE_LEN: f64 = 100.0;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-wal-v2-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
            policy: PolicyDescriptor::Unbounded,
        },
        max_speed: 2.0,
        trip_end: None,
    }
}

fn update(id: u64, time: f64, arc: f64) -> WalRecord {
    WalRecord::Update {
        id: ObjectId(id),
        msg: UpdateMessage::basic(time, UpdatePosition::Arc(arc % ROUTE_LEN), 1.0),
    }
}

/// Registrations, then interleaved updates across the fleet.
fn workload(fleet: u64, rounds: u64) -> Vec<WalRecord> {
    let mut records: Vec<WalRecord> = (0..fleet)
        .map(|i| WalRecord::RegisterMoving(vehicle(i, i as f64 * 5.0)))
        .collect();
    for r in 0..rounds {
        for id in 0..fleet {
            records.push(update(id, r as f64 + 1.0, id as f64 * 5.0 + r as f64));
        }
    }
    records
}

fn reference_db(records: &[WalRecord]) -> Database {
    let mut db = Database::new(network(), DatabaseConfig::default());
    for rec in records {
        let _ = modb_wal::apply_record(&mut db, rec.clone());
    }
    db
}

fn assert_same_state(a: &Database, b: &Database) {
    assert_eq!(a.moving_count(), b.moving_count());
    let mut ids: Vec<ObjectId> = a.moving_ids().collect();
    ids.sort_unstable();
    for id in ids {
        assert_eq!(
            a.moving(id).unwrap(),
            b.moving(id).unwrap(),
            "object {id:?}"
        );
    }
}

fn opts(max_segment_bytes: u64) -> WalOptions {
    WalOptions { max_segment_bytes }
}

#[test]
fn foreign_header_versions_are_refused_everywhere_and_left_on_disk() {
    // Version 1 is the retired one-record-per-frame format, 2 the
    // retired fixed-length frames, 3 the retired one-update blocks in the
    // delta-stream layout, 4 the retired per-object delta streams, 9 a
    // format this build has never heard of: all get the same typed
    // refusal from every reader and the writer, and the file keeps every
    // byte.
    for foreign in [1u32, 2, 3, 4, 9] {
        let dir = tmp(&format!("foreign-v{foreign}"));
        let empty = Database::new(network(), DatabaseConfig::default());
        let mut w = WalWriter::create(&dir, opts(u64::MAX)).unwrap();
        write_snapshot(&dir, &empty, &EpochHistory::new(), 0).unwrap();
        for rec in &workload(2, 3) {
            w.append(rec).unwrap();
        }
        w.sync().unwrap();
        let next_lsn = w.next_lsn();
        drop(w);
        let path = list_segments(&dir).unwrap().remove(0).1;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&foreign.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let refusals = [
            scan_segment(&path).map(|_| ()),
            recover(&dir).map(|_| ()),
            WalWriter::resume(&dir, opts(u64::MAX), next_lsn).map(|_| ()),
            SegmentTailer::new(&dir, 0).poll_blocks(64).map(|_| ()),
        ];
        for (i, refusal) in refusals.into_iter().enumerate() {
            assert!(
                matches!(
                    refusal,
                    Err(WalError::CorruptSegment {
                        offset: 8,
                        reason: "unsupported version",
                        ..
                    })
                ),
                "version {foreign}, reader {i}: {refusal:?}"
            );
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "segment modified");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crash_inside_a_compressed_block_truncates_to_the_block_boundary() {
    // Two batched (compressed) blocks; cut the file at every byte of the
    // second block's frame. Recovery must always land exactly at the
    // first block's boundary — never lose it, never deliver a partial
    // second block.
    let dir = tmp("torn-block");
    let empty = Database::new(network(), DatabaseConfig::default());
    let records = workload(4, 8);
    let half = records.len() / 2;
    let mut w = WalWriter::create(&dir, opts(u64::MAX)).unwrap();
    write_snapshot(&dir, &empty, &EpochHistory::new(), 0).unwrap();
    let mut batch = WalBatch::new();
    for rec in &records[..half] {
        batch.push(rec);
    }
    w.append_batch(&mut batch).unwrap();
    let boundary = {
        let segments = list_segments(&dir).unwrap();
        w.sync().unwrap();
        std::fs::metadata(&segments[0].1).unwrap().len() as usize
    };
    for rec in &records[half..] {
        batch.push(rec);
    }
    w.append_batch(&mut batch).unwrap();
    w.sync().unwrap();
    drop(w);

    let path = list_segments(&dir).unwrap().remove(0).1;
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > boundary);
    let first_half_state = reference_db(&records[..half]);
    for cut in boundary..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let recovered = recover(&dir).unwrap();
        assert_eq!(
            recovered.report.next_lsn, half as u64,
            "cut at {cut}: partial second block must be dropped whole"
        );
        assert_eq!(recovered.report.truncated_bytes, (cut - boundary) as u64);
        assert_same_state(&recovered.database, &first_half_state);
    }
    // The untouched file recovers everything.
    std::fs::write(&path, &full).unwrap();
    let recovered = recover(&dir).unwrap();
    assert_eq!(recovered.report.next_lsn, records.len() as u64);
    assert_same_state(&recovered.database, &reference_db(&records));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Block-codec property: adversarial object interleavings and times
// ---------------------------------------------------------------------

/// An update whose shape stresses the block codec: ids collide across a
/// small space (interleavings), times go backwards as often as forwards
/// (wide time deltas), and some records carry options that force the
/// verbatim fallback.
fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        0u64..12,
        // Arbitrary bit patterns: NaNs, infinities, subnormals included.
        any::<u64>().prop_map(f64::from_bits),
        prop_oneof![
            (-1.0e6f64..1.0e6).prop_map(UpdatePosition::Arc),
            (any::<u64>(), any::<u64>()).prop_map(|(x, y)| UpdatePosition::Coordinates(
                Point::new(f64::from_bits(x), f64::from_bits(y))
            )),
        ],
        -10.0f64..10.0,
        proptest::option::of(1u64..5),
    )
        .prop_map(|(id, time, position, speed, route)| WalRecord::Update {
            id: ObjectId(id),
            msg: UpdateMessage {
                time,
                position,
                speed,
                route: route.map(RouteId), // Some ⇒ verbatim fallback
                direction: None,
                policy: None,
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random interleavings, out-of-order times, NaN/∞ payloads, and
    /// random block boundaries (= restart points, since a block is
    /// decoded with nothing from another): the stream must round-trip
    /// bit-exactly through the block codec, compressed and uncompressed
    /// alike.
    #[test]
    fn delta_codec_round_trips_across_restart_points(
        records in proptest::collection::vec(arb_record(), 1..120),
        splits in proptest::collection::vec(1usize..20, 0..8),
        compress in any::<bool>(),
    ) {
        // Carve the stream into blocks at the random split widths.
        let mut blocks: Vec<&[WalRecord]> = Vec::new();
        let mut rest: &[WalRecord] = &records;
        for w in splits {
            if rest.is_empty() { break; }
            let take = w.min(rest.len());
            blocks.push(&rest[..take]);
            rest = &rest[take..];
        }
        if !rest.is_empty() {
            blocks.push(rest);
        }
        let mut decoded = Vec::new();
        for block in blocks {
            let mut payload = Vec::new();
            encode_block(block, compress, &mut payload);
            prop_assert_eq!(
                modb_wal::peek_block_count(&payload).unwrap(),
                block.len() as u64
            );
            decoded.extend(decode_block(&payload).unwrap());
        }
        // PartialEq on f64 treats NaN ≠ NaN, so compare encoded bytes:
        // bit-exact round-trip is exactly what the codec promises.
        let mut want = Vec::new();
        let mut got = Vec::new();
        for r in &records { r.encode_payload(&mut want); }
        for r in &decoded { r.encode_payload(&mut got); }
        prop_assert_eq!(want, got);
    }
}

// ---------------------------------------------------------------------
// Framing property: every cut and every bit flip of a written segment
// ---------------------------------------------------------------------

/// The records' payload bytes, concatenated: `PartialEq` on `f64` says
/// NaN ≠ NaN, and the codec promises bit-exact round trips anyway.
fn payload_bytes(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        r.encode_payload(&mut out);
    }
    out
}

/// A unique directory per case: proptest runs many in one process.
fn case_dir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    tmp(&format!("framing-{n}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches (compact arc and coordinate updates, verbatim
    /// records, NaN and infinite floats) appended through `WalWriter`,
    /// one block each. The frame boundaries are where the file ended
    /// after each append. Every byte-prefix of the segment body scans to
    /// its longest whole-frame prefix, and every single-bit flip — in a
    /// length varint, a CRC or a payload — ends the scan at the start of
    /// the flipped frame, with exactly the records before it.
    #[test]
    fn every_cut_and_bit_flip_ends_the_scan_at_a_frame_boundary(
        batches in proptest::collection::vec(proptest::collection::vec(arb_record(), 1..6), 1..6),
    ) {
        let dir = case_dir();
        let mut w = WalWriter::create(&dir, opts(u64::MAX)).unwrap();
        let path = list_segments(&dir).unwrap().remove(0).1;
        let header = std::fs::metadata(&path).unwrap().len() as usize;
        // boundaries[k] / counts[k]: body bytes and records of the first
        // k frames.
        let (mut boundaries, mut counts) = (vec![0usize], vec![0usize]);
        let mut batch = WalBatch::new();
        for records in &batches {
            for rec in records {
                batch.push(rec);
            }
            w.append_batch(&mut batch).unwrap();
            boundaries.push(std::fs::metadata(&path).unwrap().len() as usize - header);
            counts.push(counts.last().unwrap() + records.len());
        }
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let body = &bytes[header..];
        prop_assert_eq!(body.len(), *boundaries.last().unwrap());
        let flat: Vec<WalRecord> = batches.concat();
        let frame_of = |at: usize| boundaries.iter().rposition(|&b| b <= at).unwrap();

        for cut in 0..=body.len() {
            let (records, clean, end) = decode_block_frames(&body[..cut]);
            let k = frame_of(cut);
            prop_assert_eq!(clean, boundaries[k], "cut at {}", cut);
            prop_assert_eq!(payload_bytes(&records), payload_bytes(&flat[..counts[k]]));
            prop_assert_eq!(end == FrameEnd::Clean, cut == boundaries[k], "cut at {}", cut);
        }

        let mut flipped = body.to_vec();
        for at in 0..body.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                let (records, clean, end) = decode_block_frames(&flipped);
                flipped[at] ^= 1 << bit;
                let k = frame_of(at);
                prop_assert_eq!(clean, boundaries[k], "bit {} of byte {}", bit, at);
                prop_assert!(matches!(end, FrameEnd::Torn { .. }), "bit {} of byte {}", bit, at);
                prop_assert_eq!(payload_bytes(&records), payload_bytes(&flat[..counts[k]]));
            }
        }
    }
}

/// A log of 40 registrations over many small segments after a genesis
/// snapshot.
fn small_segment_log(name: &str) -> (PathBuf, Vec<(u64, PathBuf)>) {
    let dir = tmp(name);
    let opts = WalOptions {
        max_segment_bytes: 200,
    };
    let mut w = WalWriter::create(&dir, opts).unwrap();
    write_snapshot(
        &dir,
        &Database::new(network(), DatabaseConfig::default()),
        &EpochHistory::new(),
        0,
    )
    .unwrap();
    for rec in workload(40, 0) {
        w.append(&rec).unwrap();
    }
    w.sync().unwrap();
    let segments = list_segments(&dir).unwrap();
    assert!(segments.len() > 10, "{} segments", segments.len());
    (dir, segments)
}

/// The first segment after a snapshot at LSN 0 gone: the records it
/// held are in neither file, so recovery refuses instead of replaying
/// from the second.
#[test]
fn missing_first_segment_after_the_snapshot_is_a_gap() {
    let (dir, segments) = small_segment_log("first-gap");
    std::fs::remove_file(&segments[0].1).unwrap();
    match recover(&dir) {
        Err(WalError::SegmentGap { expected, found }) => {
            assert_eq!((expected, found), (0, segments[1].0));
        }
        other => panic!("expected a gap, got {:?}", other.map(|r| r.report)),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A snapshot whose header names another LSN than its file is passed
/// over for the next one down the ladder; a segment that does is refused
/// typed.
#[test]
fn names_that_disagree_with_headers_are_refused() {
    let (dir, segments) = small_segment_log("misnamed");
    let snap = |lsn| dir.join(modb_wal::snapshot::snapshot_file_name(lsn));
    std::fs::copy(snap(0), snap(10)).unwrap();
    let rec = recover(&dir).unwrap();
    assert_eq!((rec.report.snapshot_lsn, rec.report.next_lsn), (0, 40));

    let (start, last) = segments.last().unwrap();
    let renamed = dir.join(modb_wal::segment::segment_file_name(start + 1));
    std::fs::rename(last, &renamed).unwrap();
    match recover(&dir) {
        Err(WalError::CorruptSegment { path, reason, .. }) => {
            assert_eq!(path, renamed);
            assert_eq!(reason, "start lsn disagrees with the file name");
        }
        other => panic!(
            "expected a typed refusal, got {:?}",
            other.map(|r| r.report)
        ),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
