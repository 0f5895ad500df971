//! The memory a snapshot costs, measured by a counting global allocator.
//!
//! Writing a snapshot streams it: the live heap rises by one block of
//! records, its frame and the id-sorted list of object references (8 B a
//! vehicle), never by the file's size. Recovering from one holds the
//! file's bytes once and applies them one block at a time, straight into
//! the database, with no list of decoded objects beside it.
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

/// Enough vehicles that the LZ-compressed file stays over the floor
/// below, which is what makes the bounds mean something.
const VEHICLES: u64 = 85_000;
const MIB: usize = 1 << 20;

fn fleet() -> Database {
    let network = RouteNetwork::from_routes([Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)],
    )
    .unwrap()])
    .unwrap();
    let mut db = Database::new(network, DatabaseConfig::default());
    db.insert_stationary(StationaryObject::new(
        ObjectId(VEHICLES + 1),
        "depot",
        Point::new(12.0, 0.0),
    ))
    .unwrap();
    for id in 0..VEHICLES {
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
    let db = fleet();

    let (path, write_peak) =
        peak_above_start(|| write_snapshot(&dir, &db, &EpochHistory::new(), 1).unwrap());
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(
        file_len > 1_800_000,
        "a {VEHICLES}-vehicle file is ≈ 1.9 MB, got {file_len} B"
    );
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "the snapshot alone"
    );
    assert!(
        write_peak < MIB,
        "writing a {file_len}-byte snapshot raised the live heap by {write_peak} B"
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
        read_peak - kept < file_len + MIB,
        "reading a {file_len}-byte snapshot peaked {} B above the {kept} B database it built",
        read_peak - kept
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
