//! Golden-file decode tests: the on-disk compatibility contract.
//!
//! The one format is a version-5 log segment (`tests/golden/segment-v5/`)
//! and a snapshot written in the same layout beside it, whose head
//! carries the leadership history. Both decode to the values they were
//! built from and re-encode to the identical bytes, so a change to any
//! surviving byte fails here first. Beside them are the fixtures of
//! refusal: the version-4 segment and snapshot (the segment walked by
//! hand into the v5 one), the version-3 segment and snapshots (walked by
//! hand into the v4 ones), the version-2 segment (walked by hand into the
//! v3 one), the v3 snapshot whose head had no history (walked by hand
//! into the v3 one with it) and the retired `MODBSNP1` snapshots of
//! versions 3 and 4. See `tests/golden/README.md` for how the files were
//! produced.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    StationaryObject, UpdateMessage, UpdatePosition, DEFAULT_HORIZON, MAP_MATCH_TOLERANCE,
    REFINEMENT_DT,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_wal::{
    list_segments, read_snapshot, scan_segment, write_snapshot, EpochHistory, WalBatch, WalError,
    WalOptions, WalRecord, WalWriter,
};

/// The segment's file name, in every directory.
const SEGMENT_NAME: &str = "wal-00000000000000000000.log";
/// The v5 segment.
const SEGMENT: &str = "segment-v5/wal-00000000000000000000.log";
/// The v4 segment, kept as the fixture of its refusal.
const SEGMENT_V4: &str = "segment-v4/wal-00000000000000000000.log";
/// The v3 segment, kept as the fixture of its refusal.
const SEGMENT_V3: &str = "v3/wal-00000000000000000000.log";
/// The v2 segment, kept as the fixture of its refusal.
const SEGMENT_V2: &str = SEGMENT_NAME;
/// The snapshot's file name, in every directory.
const SNAPSHOT_NAME: &str = "snap-00000000000000000007.snap";
/// The snapshot: a sealed file of the v5 segment layout whose head
/// carries the leadership history.
const SNAPSHOT: &str = "segment-v5/snap-00000000000000000007.snap";
/// The same snapshot in the v4 layout, kept as the fixture of its
/// refusal.
const SNAPSHOT_V4: &str = "segment-v4/snap-00000000000000000007.snap";
/// The same snapshot in the v3 layout, kept as the fixture of its
/// refusal.
const SNAPSHOT_V3: &str = "v3/epochs/snap-00000000000000000007.snap";
/// The v3 layout with a head of record tag 7, which had no history,
/// kept as the fixture of its refusal.
const SNAPSHOT_NO_EPOCHS: &str = "v3/snap-00000000000000000007.snap";
/// The retired `MODBSNP1` snapshots, version 3 and version 4, kept as
/// the fixtures of their refusal.
const SNAPSHOT_SNP1_V3: &str = "snap-00000000000000000007.snap";
const SNAPSHOT_SNP1_V4: &str = "v4/snap-00000000000000000007.snap";

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-wal-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn network() -> RouteNetwork {
    RouteNetwork::from_routes([
        Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
        )
        .unwrap(),
        Route::from_vertices(
            RouteId(2),
            "spur",
            vec![
                Point::new(0.0, 10.0),
                Point::new(50.0, 10.0),
                Point::new(50.0, 60.0),
            ],
        )
        .unwrap(),
    ])
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
        trip_end: Some(90.0),
    }
}

/// The segment's records, block by block. Block 0 is a 49-record batch
/// (48 compact updates round-robined over six objects plus one route
/// change stored verbatim) that the LZ stage shrinks; blocks 1–3 are
/// single-record appends: a basic update (a one-update block since
/// version 4, plain before it), a verbatim registration (long enough
/// that LZ keeps it), and a `LeaderEpoch` (plain).
fn segment_blocks() -> Vec<Vec<WalRecord>> {
    let mut batch = Vec::new();
    for round in 0..8u64 {
        for id in 0..6u64 {
            batch.push(WalRecord::Update {
                id: ObjectId(id),
                msg: UpdateMessage::basic(
                    (round + 1) as f64,
                    UpdatePosition::Arc(id as f64 * 10.0 + round as f64),
                    1.0,
                ),
            });
        }
        if round == 3 {
            batch.push(WalRecord::Update {
                id: ObjectId(2),
                msg: UpdateMessage::route_change(
                    4.5,
                    RouteId(2),
                    UpdatePosition::Coordinates(Point::new(20.0, 10.0)),
                    Direction::Backward,
                    0.8,
                ),
            });
        }
    }
    vec![
        batch,
        vec![WalRecord::Update {
            id: ObjectId(5),
            msg: UpdateMessage::basic(9.25, UpdatePosition::Arc(58.5), 1.25),
        }],
        vec![WalRecord::RegisterMoving(vehicle(6, 60.0))],
        vec![WalRecord::LeaderEpoch { epoch: 2 }],
    ]
}

/// The state every snapshot fixture was taken from: two routes, a
/// landmark, two vehicles, one of them updated once (the retired v3 file
/// kept the superseded attribute in a history arm; the others keep the
/// attribute in force only).
fn snapshot_state() -> Database {
    let mut db = Database::new(network(), DatabaseConfig::default());
    db.insert_stationary(StationaryObject::new(
        ObjectId(100),
        "depot",
        Point::new(12.0, 0.0),
    ))
    .unwrap();
    db.register_moving(vehicle(1, 10.0)).unwrap();
    db.register_moving(vehicle(2, 40.0)).unwrap();
    db.apply_update(
        ObjectId(1),
        &UpdateMessage::basic(5.0, UpdatePosition::Arc(14.0), 0.5),
    )
    .unwrap();
    db
}

/// The leadership history the snapshot was taken under: genesis, then
/// epoch 2 from LSN 4.
fn snapshot_epochs() -> EpochHistory {
    let mut epochs = EpochHistory::new();
    epochs.begin(4).unwrap();
    epochs
}

/// Reads the LEB128 varint at `buf[*pos..]` and moves `pos` past it.
fn varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..).step_by(7) {
        let b = buf[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
    }
    v
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Splits a v3, v4 or v5 segment body into its frames' payloads by hand — the
/// layout under contract (`[len varint][crc u32][payload]`), read
/// without the crate's own frame reader.
fn frame_payloads(body: &[u8]) -> Vec<&[u8]> {
    let mut payloads = Vec::new();
    let mut pos = 0;
    while pos < body.len() {
        let len = varint(body, &mut pos) as usize;
        payloads.push(&body[pos + 4..pos + 4 + len]);
        pos += 4 + len;
    }
    payloads
}

/// The record stream of an LZ block payload (`[1][count varint][stream
/// length varint][LZ bytes]`), inflated.
fn inflate(block: &[u8]) -> Vec<u8> {
    assert_eq!(block[0], 1, "an LZ block");
    let mut pos = 1;
    varint(block, &mut pos); // the record count
    let len = varint(block, &mut pos) as usize;
    modb_wal::lz::decompress(&block[pos..], len).unwrap()
}

/// The same for a v2 body (`[len u32][crc u32][payload]`).
fn v2_frame_payloads(body: &[u8]) -> Vec<&[u8]> {
    let mut payloads = Vec::new();
    let mut pos = 0;
    while pos < body.len() {
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        payloads.push(&body[pos + 8..pos + 8 + len]);
        pos += 8 + len;
    }
    payloads
}

#[test]
fn segment_decodes_to_its_records_and_re_encodes_bit_identically() {
    let bytes = std::fs::read(golden(SEGMENT)).unwrap();
    let blocks = segment_blocks();

    // Header: magic, version 5, start LSN 0 — nothing renumbered.
    assert_eq!(&bytes[..8], b"MODBWAL1");
    assert_eq!(bytes[8..12], 5u32.to_le_bytes());
    assert_eq!(bytes[12..20], 0u64.to_le_bytes());
    // One frame per block; the format byte says which went through LZ
    // (1), which stayed plain (0) and which is one update on an arc (2).
    let formats: Vec<u8> = frame_payloads(&bytes[20..]).iter().map(|p| p[0]).collect();
    assert_eq!(formats, [1, 2, 1, 0]);

    let scan = scan_segment(&golden(SEGMENT)).unwrap();
    assert_eq!(scan.start_lsn, 0);
    assert_eq!(scan.torn, None);
    assert_eq!(scan.clean_bytes, bytes.len() as u64);
    assert_eq!(scan.records, blocks.concat());

    let dir = tmp("segment");
    let mut w = WalWriter::create(&dir, WalOptions::default()).unwrap();
    let mut batch = WalBatch::new();
    for rec in &blocks[0] {
        batch.push(rec);
    }
    w.append_batch(&mut batch).unwrap();
    for block in &blocks[1..] {
        w.append(&block[0]).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    let segments = list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1);
    assert_eq!(segments[0].1.file_name().unwrap(), SEGMENT_NAME);
    assert_eq!(std::fs::read(&segments[0].1).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment of a retired `version` is refused typed, before anything is
/// decoded, by the scan and by recovery, and the file is left exactly
/// as it was.
fn assert_segment_refused(retired: &str, version: u32) {
    let before = std::fs::read(golden(retired)).unwrap();
    assert_eq!(before[8..12], version.to_le_bytes());
    let refused = |result: Result<(), WalError>| {
        matches!(
            result,
            Err(WalError::CorruptSegment {
                offset: 8,
                reason: "unsupported version",
                ..
            })
        )
    };
    assert!(refused(scan_segment(&golden(retired)).map(|_| ())));

    let dir = tmp(&format!("v{version}-refusal"));
    write_snapshot(
        &dir,
        &Database::new(network(), DatabaseConfig::default()),
        &EpochHistory::new(),
        0,
    )
    .unwrap();
    std::fs::copy(golden(retired), dir.join(SEGMENT_NAME)).unwrap();
    assert!(refused(modb_wal::recover(&dir).map(|_| ())));
    assert_eq!(std::fs::read(dir.join(SEGMENT_NAME)).unwrap(), before);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(std::fs::read(golden(retired)).unwrap(), before);
}

#[test]
fn v2_segment_is_refused_typed_and_left_untouched() {
    assert_segment_refused(SEGMENT_V2, 2);
}

#[test]
fn v3_segment_is_refused_typed_and_left_untouched() {
    assert_segment_refused(SEGMENT_V3, 3);
}

#[test]
fn v4_segment_is_refused_typed_and_left_untouched() {
    assert_segment_refused(SEGMENT_V4, 4);
}

/// A v2 block stream with its first compact record's floats (time,
/// position, speed) written as raw 8-byte LE bit patterns: a v2 float
/// is the zigzag varint of its bits minus the all-zero context, so the
/// raw bits are that varint unzigzagged. Every other byte is copied.
fn raw_first_floats(stream: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stream.len());
    let mut pos = 0;
    while pos < stream.len() {
        let start = pos;
        let tag = stream[pos];
        pos += 1;
        match tag {
            0 => {
                // Verbatim: a length varint and that many bytes.
                let len = varint(stream, &mut pos) as usize;
                pos += len;
                out.extend_from_slice(&stream[start..pos]);
            }
            1 | 2 => {
                varint(stream, &mut pos); // the id delta stays a varint
                out.extend_from_slice(&stream[start..pos]);
                let floats = if tag == 2 { 4 } else { 3 };
                for _ in 0..floats {
                    let d = varint(stream, &mut pos);
                    let bits = ((d >> 1) as i64 ^ -((d & 1) as i64)) as u64;
                    out.extend_from_slice(&bits.to_le_bytes());
                }
                // Every later record is unchanged.
                out.extend_from_slice(&stream[pos..]);
                return out;
            }
            _ => panic!("bad record tag {tag}"),
        }
    }
    out
}

/// The v3 segment is the v2 segment with exactly the two changes of
/// version 3: each frame's `u32` length becomes a varint, and inside
/// each block the first compact record's floats are written raw (an LZ
/// block is inflated, rewritten and compressed again). The block
/// formats, counts, later records and the LZ stage are untouched.
#[test]
fn v3_is_v2_reframed() {
    let v2 = std::fs::read(golden(SEGMENT_V2)).unwrap();
    let v3 = std::fs::read(golden(SEGMENT_V3)).unwrap();
    let mut reframed = v2[..20].to_vec();
    reframed[8..12].copy_from_slice(&3u32.to_le_bytes());
    let mut formats = Vec::new();
    for block in v2_frame_payloads(&v2[20..]) {
        let mut pos = 1;
        let count = varint(block, &mut pos);
        let mut payload = vec![block[0]];
        put_varint(&mut payload, count);
        match block[0] {
            0 => payload.extend(raw_first_floats(&block[pos..])),
            1 => {
                let len = varint(block, &mut pos) as usize;
                let stream =
                    raw_first_floats(&modb_wal::lz::decompress(&block[pos..], len).unwrap());
                put_varint(&mut payload, stream.len() as u64);
                modb_wal::lz::Compressor::new().compress(&stream, &mut payload);
            }
            format => panic!("bad block format {format}"),
        }
        formats.push(block[0]);
        put_varint(&mut reframed, payload.len() as u64);
        reframed.extend_from_slice(&modb_wal::crc32(&payload).to_le_bytes());
        reframed.extend_from_slice(&payload);
    }
    assert_eq!(formats, [1, 0, 1, 0]);
    assert_eq!(reframed, v3);
    // The one-update block (time 9.25, arc 58.5, speed 1.25): its floats
    // took 10 + 10 + 9 varint bytes and take 3 × 8 raw, and its frame
    // header shrinks from 8 bytes to 5 — 41 bytes on disk become 33.
    let one_update = |payloads: Vec<&[u8]>| payloads[1].len();
    assert_eq!(one_update(v2_frame_payloads(&v2[20..])), 33);
    assert_eq!(one_update(frame_payloads(&v3[20..])), 28);
}

/// The v4 segment is the v3 segment with exactly the change of version
/// 4: the block of one basic update is rewritten as format 2 (an arc;
/// 3 would be coordinates) — the block's count and the record's tag go,
/// the id is written as a plain varint where v3 wrote its zigzag delta
/// against 0, and the raw floats are copied. Every other frame — the
/// 49-record LZ batch, the verbatim registration (a one-record LZ
/// block), the `LeaderEpoch` — is byte-identical. The v4 snapshot holds
/// no update, so it is the v3 one with only its version changed.
#[test]
fn v4_is_v3_with_its_one_update_blocks_rewritten() {
    let v3 = std::fs::read(golden(SEGMENT_V3)).unwrap();
    let v4 = std::fs::read(golden(SEGMENT_V4)).unwrap();
    let mut rewritten = v3[..20].to_vec();
    rewritten[8..12].copy_from_slice(&4u32.to_le_bytes());
    let mut frames = Vec::new();
    for block in frame_payloads(&v3[20..]) {
        let mut pos = 1;
        let count = varint(block, &mut pos);
        let payload = match (block[0], count, block[pos]) {
            (0, 1, tag @ (1 | 2)) => {
                pos += 1;
                let delta = varint(block, &mut pos);
                let id = (delta >> 1) ^ (delta & 1).wrapping_neg();
                let mut payload = vec![if tag == 1 { 2 } else { 3 }];
                put_varint(&mut payload, id);
                assert_eq!(block.len() - pos, if tag == 1 { 24 } else { 32 });
                payload.extend_from_slice(&block[pos..]);
                payload
            }
            (1, 1, _) => {
                assert_eq!(inflate(block)[0], 0, "a one-record LZ block is verbatim");
                block.to_vec()
            }
            _ => block.to_vec(),
        };
        frames.push((block.len(), payload.len()));
        put_varint(&mut rewritten, payload.len() as u64);
        rewritten.extend_from_slice(&modb_wal::crc32(&payload).to_le_bytes());
        rewritten.extend_from_slice(&payload);
    }
    assert_eq!(rewritten, v4);
    // The one-update block (object 5, time 9.25, arc 58.5, speed 1.25):
    // its payload was format, count, tag, id and 24 raw bytes, 28 in
    // all, and is 1 + 1 + 24, so its frame falls from 33 bytes to
    // 5 + 1 + varint(5) + 24 = 31.
    assert_eq!(frames[1], (28, 26));
    assert_eq!((v3.len(), v4.len()), (393, 391));

    let (snap_v3, snap) = (
        std::fs::read(golden(SNAPSHOT_V3)).unwrap(),
        std::fs::read(golden(SNAPSHOT_V4)).unwrap(),
    );
    assert_eq!(snap_v3[8..12], 3u32.to_le_bytes());
    assert_eq!(snap[8..12], 4u32.to_le_bytes());
    assert_eq!((&snap_v3[..8], &snap_v3[12..]), (&snap[..8], &snap[12..]));
}

fn unzigzag(d: u64) -> u64 {
    (d >> 1) ^ (d & 1).wrapping_neg()
}

/// Appends `values` at `width` bytes as byte planes: byte 0 of every
/// value, then byte 1, and so on.
fn put_planes(out: &mut Vec<u8>, values: &[u64], width: usize) {
    for k in 0..width {
        out.extend(values.iter().map(|v| (v >> (8 * k)) as u8));
    }
}

/// The same after a width byte: the fewest bytes that hold every value.
fn put_narrow(out: &mut Vec<u8>, values: &[u64]) {
    let width = values
        .iter()
        .map(|v| (64 - v.leading_zeros() as usize).div_ceil(8))
        .max()
        .unwrap_or(0);
    out.push(width as u8);
    put_planes(out, values, width);
}

/// A compact update's fields: id, coordinates or not, and the bit
/// patterns of time, p0, p1 (0 on an arc) and speed.
type Compact = (u64, bool, [u64; 4]);

/// Reads a v4 block stream by hand: its verbatim records' bytes as they
/// are, and each compact record's fields, from its id's zigzag delta
/// against the record before and its floats' zigzag deltas against its
/// object's last values in the block (the stream's last values on an
/// object's first appearance; the first compact record's floats raw; an
/// arc leaves the second coordinate as it was).
fn read_v4_stream(stream: &[u8]) -> Vec<Result<&[u8], Compact>> {
    let mut records = Vec::new();
    let (mut last_id, mut last) = (0u64, [0u64; 4]);
    let mut objects: HashMap<u64, [u64; 4]> = HashMap::new();
    let mut pos = 0;
    while pos < stream.len() {
        let (start, tag) = (pos, stream[pos]);
        pos += 1;
        if tag == 0 {
            let len = varint(stream, &mut pos) as usize;
            pos += len;
            records.push(Ok(&stream[start..pos]));
            continue;
        }
        let raw = records.iter().all(Result::is_ok);
        let id = last_id.wrapping_add(unzigzag(varint(stream, &mut pos)));
        let context = objects.get(&id).copied().unwrap_or(last);
        let mut fields = context;
        for (i, field) in fields.iter_mut().enumerate() {
            if i == 2 && tag == 1 {
                continue;
            }
            *field = if raw {
                pos += 8;
                u64::from_le_bytes(stream[pos - 8..pos].try_into().unwrap())
            } else {
                context[i].wrapping_add(unzigzag(varint(stream, &mut pos)))
            };
        }
        objects.insert(id, fields);
        (last_id, last) = (id, fields);
        let coords = tag == 2;
        records.push(Err((
            id,
            coords,
            [
                fields[0],
                fields[1],
                fields[2] * u64::from(coords),
                fields[3],
            ],
        )));
    }
    records
}

/// The v5 segment is the v4 segment with exactly the change of version
/// 5: the stream of block 0, the 49-record batch, is rewritten — its
/// record section is each compact record's tag alone and the verbatim
/// route change's bytes as they were, and its 48 updates, read back from
/// v4's per-object deltas, follow as columns of byte planes (ids and time
/// deltas at their fewest bytes, the first time and every other float
/// raw) — and compressed again with a fresh table. The one-update block,
/// the verbatim registration and the `LeaderEpoch` are byte-identical.
/// The v5 snapshot holds no update, so it is the v4 one with only its
/// version changed.
#[test]
fn v5_is_v4_with_its_streams_rewritten() {
    let v4 = std::fs::read(golden(SEGMENT_V4)).unwrap();
    let v5 = std::fs::read(golden(SEGMENT)).unwrap();
    let mut rewritten = v4[..20].to_vec();
    rewritten[8..12].copy_from_slice(&5u32.to_le_bytes());
    let mut frames = Vec::new();
    for (i, block) in frame_payloads(&v4[20..]).into_iter().enumerate() {
        let payload = if i == 0 {
            let v4_stream = inflate(block);
            let records = read_v4_stream(&v4_stream);
            let mut stream = Vec::new();
            let mut updates = Vec::new();
            for record in &records {
                match *record {
                    Ok(verbatim) => stream.extend_from_slice(verbatim),
                    Err((id, coords, fields)) => {
                        stream.push(if coords { 2 } else { 1 });
                        updates.push((id, coords, fields));
                    }
                }
            }
            // The updates read back are the batch's basic updates.
            let batch: Vec<Compact> = (segment_blocks()[0].iter())
                .filter_map(|rec| match rec {
                    WalRecord::Update { id, msg } if msg.route.is_none() => {
                        let UpdatePosition::Arc(arc) = msg.position else {
                            panic!("the batch's updates are on arcs")
                        };
                        let bits = [msg.time.to_bits(), arc.to_bits(), 0, msg.speed.to_bits()];
                        Some((id.0, false, bits))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(updates, batch);
            let column = |f: usize| -> Vec<u64> { updates.iter().map(|u| u.2[f]).collect() };
            let ids: Vec<u64> = updates.iter().map(|u| u.0).collect();
            put_narrow(&mut stream, &ids);
            let times = column(0);
            stream.extend_from_slice(&times[0].to_le_bytes());
            let deltas: Vec<u64> = (times.windows(2))
                .map(|t| {
                    let d = t[1].wrapping_sub(t[0]);
                    (d << 1) ^ ((d as i64 >> 63) as u64)
                })
                .collect();
            put_narrow(&mut stream, &deltas);
            let p1: Vec<u64> = (updates.iter().filter(|u| u.1)).map(|u| u.2[2]).collect();
            for floats in [column(1), p1, column(3)] {
                put_planes(&mut stream, &floats, 8);
            }
            let mut payload = vec![1];
            put_varint(&mut payload, records.len() as u64);
            put_varint(&mut payload, stream.len() as u64);
            modb_wal::lz::Compressor::new().compress(&stream, &mut payload);
            frames.push((v4_stream.len(), stream.len()));
            payload
        } else {
            block.to_vec()
        };
        frames.push((block.len(), payload.len()));
        put_varint(&mut rewritten, payload.len() as u64);
        rewritten.extend_from_slice(&modb_wal::crc32(&payload).to_le_bytes());
        rewritten.extend_from_slice(&payload);
    }
    assert_eq!(rewritten, v5);
    // Block 0: its stream grows from 924 bytes to 1,259 (48 × 24 float
    // bytes raw, where this toy batch's per-object deltas were small),
    // and its LZ block shrinks from 248 bytes to 185 — the planes'
    // repeated bytes are runs.
    assert_eq!(frames[..2], [(924, 1_259), (248, 185)]);
    assert_eq!((v4.len(), v5.len()), (391, 328));

    let (snap_v4, snap) = (
        std::fs::read(golden(SNAPSHOT_V4)).unwrap(),
        std::fs::read(golden(SNAPSHOT)).unwrap(),
    );
    assert_eq!(snap_v4[8..12], 4u32.to_le_bytes());
    assert_eq!(snap[8..12], 5u32.to_le_bytes());
    assert_eq!((&snap_v4[..8], &snap_v4[12..]), (&snap[..8], &snap[12..]));
}

#[test]
fn snapshot_decodes_to_its_state_and_re_encodes_bit_identically() {
    let bytes = std::fs::read(golden(SNAPSHOT)).unwrap();
    let expected = snapshot_state();

    // The segment header, with the snapshot's LSN as its start LSN.
    assert_eq!(&bytes[..8], b"MODBWAL1");
    assert_eq!(bytes[8..12], 5u32.to_le_bytes());
    assert_eq!(bytes[12..20], 7u64.to_le_bytes());
    // Two LZ blocks, read by hand: the head alone, then all five records
    // of the state.
    let payloads = frame_payloads(&bytes[20..]);
    let shape: Vec<(u8, u64)> = payloads.iter().map(|p| (p[0], varint(p, &mut 1))).collect();
    assert_eq!(shape, [(1, 1), (1, 5)]);
    // The head block, inflated: a verbatim record (tag 0, its length),
    // the head's tag 8, the four config floats, the count of records
    // after it, and the history: two spans, (1, 0) and (2, 4).
    let head = inflate(payloads[0]);
    let mut config = Vec::new();
    let slab = expected.config().bands;
    for f in [MAP_MATCH_TOLERANCE, DEFAULT_HORIZON, slab, REFINEMENT_DT] {
        config.extend_from_slice(&f.to_le_bytes());
    }
    assert_eq!(head[..3], [0, 77, 8]);
    assert_eq!(head[3..35], config[..]);
    assert_eq!(head[35..43], 5u64.to_le_bytes());
    assert_eq!(head[43..47], 2u32.to_le_bytes());
    let spans: Vec<u64> = head[47..]
        .chunks(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    assert_eq!(spans, [1, 0, 2, 4]);

    // A directory holding only the snapshot recovers to the state.
    let dir = tmp("snapshot-recover");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(golden(SNAPSHOT), dir.join(SNAPSHOT_NAME)).unwrap();
    let recovered = modb_wal::recover(&dir).unwrap();
    assert_eq!(
        (recovered.report.snapshot_lsn, recovered.report.next_lsn),
        (7, 7)
    );
    assert_eq!(recovered.epochs, snapshot_epochs());
    let db = recovered.database;
    assert_eq!(db.config(), expected.config());
    assert_eq!(db.network().route_ids(), [RouteId(1), RouteId(2)]);
    assert_eq!(
        db.stationary(ObjectId(100)).unwrap(),
        expected.stationary(ObjectId(100)).unwrap()
    );
    assert_eq!(db.moving_count(), 2);
    for id in [ObjectId(1), ObjectId(2)] {
        assert_eq!(db.moving(id).unwrap(), expected.moving(id).unwrap());
    }
    assert_eq!(db.moving(ObjectId(1)).unwrap().attr.start_time, 5.0);
    std::fs::remove_dir_all(&dir).unwrap();

    // Both the decoded state and the independently rebuilt one encode to
    // the golden bytes.
    for (name, state) in [("decoded", &db), ("rebuilt", &expected)] {
        let dir = tmp(&format!("snapshot-{name}"));
        let path = write_snapshot(&dir, state, &snapshot_epochs(), 7).unwrap();
        assert_eq!(path.file_name().unwrap(), SNAPSHOT_NAME);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{name} state");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The v3 snapshot with a history is the one whose head had none with
/// exactly that change: the head record's tag 7 becomes 8 and the
/// history's spans follow the record count. Its head block, plain
/// before, now goes through the LZ stage (the spans' zero bytes make it
/// pay); the header and every body frame are byte-identical. Both files
/// are retired since version 4; the v4 snapshot is the later one with
/// its version changed (`v4_is_v3_with_its_one_update_blocks_rewritten`),
/// and the v5 one the v4 one with its version changed
/// (`v5_is_v4_with_its_streams_rewritten`).
#[test]
fn snapshot_is_the_historyless_one_with_the_history_in_its_head() {
    let old = std::fs::read(golden(SNAPSHOT_NO_EPOCHS)).unwrap();
    let new = std::fs::read(golden(SNAPSHOT_V3)).unwrap();
    let (old_frames, new_frames) = (frame_payloads(&old[20..]), frame_payloads(&new[20..]));
    assert_eq!(old[..20], new[..20]);
    assert_eq!(old_frames[1..], new_frames[1..]);
    // The old head block: plain, one verbatim record of 41 bytes.
    assert_eq!(old_frames[0][..5], [0, 1, 0, 41, 7]);
    let mut record = old_frames[0][4..].to_vec();
    record[0] = 8;
    record.extend_from_slice(&2u32.to_le_bytes());
    for word in [1u64, 0, 2, 4] {
        record.extend_from_slice(&word.to_le_bytes());
    }
    let mut stream = vec![0];
    put_varint(&mut stream, record.len() as u64);
    stream.extend(record);
    assert_eq!(inflate(new_frames[0]), stream);
    let mut head = vec![1, 1];
    put_varint(&mut head, stream.len() as u64);
    modb_wal::lz::Compressor::new().compress(&stream, &mut head);
    assert_eq!(head, new_frames[0]);
}

/// The snapshots of retired layouts are refused typed and left exactly
/// as they were — by the reader and by recovery, which finds no usable
/// snapshot and never falls back to a genesis history. The `MODBSNP1`
/// container, version 3 and version 4, is refused by its magic and the
/// v4 and the two v3 segment-layout snapshots (with and without a history
/// in the head) by their version, before anything is decoded.
#[test]
fn retired_snapshots_are_refused_typed_and_left_untouched() {
    for (retired, offset, reason) in [
        (SNAPSHOT_SNP1_V3, 0, "bad magic"),
        (SNAPSHOT_SNP1_V4, 0, "bad magic"),
        (SNAPSHOT_V4, 8, "unsupported version"),
        (SNAPSHOT_V3, 8, "unsupported version"),
        (SNAPSHOT_NO_EPOCHS, 8, "unsupported version"),
    ] {
        let before = std::fs::read(golden(retired)).unwrap();
        match read_snapshot(&golden(retired)) {
            Err(WalError::CorruptSegment {
                offset: o,
                reason: r,
                ..
            }) => {
                assert_eq!((o, r), (offset, reason), "{retired}");
            }
            other => panic!(
                "{retired}: expected a typed refusal, got {:?}",
                other.map(|(.., lsn)| lsn)
            ),
        }

        let dir = tmp("retired-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(golden(retired), dir.join(SNAPSHOT_NAME)).unwrap();
        assert!(matches!(
            modb_wal::recover(&dir),
            Err(WalError::NoSnapshot(_))
        ));
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_NAME)).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(std::fs::read(golden(retired)).unwrap(), before);
    }
}
