//! The memory a snapshot costs, measured by a counting global allocator.
//!
//! Writing a snapshot streams it: the live heap rises by one block of
//! records, its frame and the id-sorted list of object references (8 B a
//! vehicle), never by the file's size. Recovering from one holds the
//! file's bytes once and applies them one block at a time, straight into
//! the database, with no list of decoded objects beside it.
//!
//! The bounds are stated against the file and one block, so a fleet a
//! few times the writer's fixed cost is enough: whatever stages the whole
//! file (or a second copy of it, or its decoded records) overshoots them
//! by about the file's size.
//!
//! One test function only: the counters are process-wide, so a second
//! test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use modb_core::{Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor};
use modb_core::{PositionAttribute, StationaryObject};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_wal::{recover, write_snapshot, EpochHistory};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller upholds here; the counters
// beside the calls touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                let grown = new_size - layout.size();
                let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak live heap during it, in
/// bytes above the live heap when it started.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed) - start)
}

/// Enough vehicles that the compressed file (≈ 22.5 B a vehicle) dwarfs
/// the writer's fixed cost, which is what makes the bounds mean
/// something.
const VEHICLES: u64 = 12_000;

fn fleet(vehicles: u64) -> Database {
    let network = RouteNetwork::from_routes([Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)],
    )
    .unwrap()])
    .unwrap();
    let mut db = Database::new(network, DatabaseConfig::default());
    db.insert_stationary(StationaryObject::new(
        ObjectId(vehicles + 1),
        "depot",
        Point::new(12.0, 0.0),
    ))
    .unwrap();
    for id in 0..vehicles {
        let arc = (id % 1_000) as f64;
        db.register_moving(MovingObject {
            id: ObjectId(id),
            name: format!("vehicle-{id:05}"),
            attr: PositionAttribute {
                start_time: 0.0,
                route: RouteId(1),
                start_position: Point::new(arc, 0.0),
                start_arc: arc,
                direction: Direction::Forward,
                speed: 0.5,
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: 5.0,
                },
            },
            max_speed: 1.0,
            trip_end: Some(60.0),
        })
        .unwrap();
    }
    db
}

#[test]
fn a_snapshot_is_streamed_out_and_decoded_without_staging() {
    let dir = std::env::temp_dir().join(format!("modb-wal-snapshot-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // The writer's fixed cost: a fleet that fills exactly one block (its
    // route and depot ride in it), so one block, its frame and the
    // compressor's tables.
    let one_block = fleet(126);
    let (path, block_peak) =
        peak_above_start(|| write_snapshot(&dir, &one_block, &EpochHistory::new(), 0).unwrap());
    std::fs::remove_file(path).unwrap();
    let db = fleet(VEHICLES);

    let (path, write_peak) =
        peak_above_start(|| write_snapshot(&dir, &db, &EpochHistory::new(), 1).unwrap());
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(
        file_len > 2 * block_peak,
        "a {VEHICLES}-vehicle file of {file_len} B against a {block_peak} B writer"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "the snapshot alone"
    );
    let references = 8 * VEHICLES as usize;
    assert!(
        write_peak < block_peak + references + file_len / 8,
        "writing a {file_len}-byte snapshot raised the live heap by {write_peak} B \
         ({block_peak} B for one block, {references} B of references)"
    );

    // The restored database is what recovery is for; beyond it, recovery
    // holds the file once, one block of records, and whatever the index's
    // own growth frees again.
    let before = LIVE.load(Ordering::Relaxed);
    let (recovered, read_peak) = peak_above_start(|| recover(&dir).unwrap());
    let kept = LIVE.load(Ordering::Relaxed) - before;
    let restored = &recovered.database;
    assert_eq!(
        (restored.moving_count(), recovered.report.next_lsn),
        (VEHICLES as usize, 1)
    );
    assert!(
        read_peak - kept < file_len + file_len / 4,
        "reading a {file_len}-byte snapshot peaked {} B above the {kept} B database it built",
        read_peak - kept
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
