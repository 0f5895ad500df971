//! Property-based tests: the R\*-tree against a brute-force oracle, and
//! o-plane coverage under random parameters.

use modb_geom::{Aabb3, Point, Polygon, Rect};
use modb_index::{IndexError, MovingObjectIndex, OPlane, QueryRegion, RStarTree};
use modb_policy::BoundKind;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use proptest::prelude::*;

fn boxes(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(Aabb3, u64)>> {
    proptest::collection::vec(
        (
            0.0f64..100.0,
            0.0f64..100.0,
            0.0f64..100.0,
            0.1f64..8.0,
            0.1f64..8.0,
            0.1f64..8.0,
        ),
        n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (x, y, t, w, h, d))| (Aabb3::new([x, y, t], [x + w, y + h, t + d]), i as u64))
            .collect()
    })
}

fn query_box() -> impl Strategy<Value = Aabb3> {
    (
        0.0f64..100.0,
        0.0f64..100.0,
        0.0f64..100.0,
        1.0f64..30.0,
        1.0f64..30.0,
        1.0f64..30.0,
    )
        .prop_map(|(x, y, t, w, h, d)| Aabb3::new([x, y, t], [x + w, y + h, t + d]))
}

/// One moving object's trip parameters, as drawn by the fleet strategy.
#[derive(Clone, Debug)]
struct Mover {
    start_arc: f64,
    t0: f64,
    speed: f64,
    max_speed: f64,
    backward: bool,
    immediate: bool,
}

const TRIP_MINUTES: f64 = 40.0;

fn bent_route() -> Route {
    Route::from_vertices(
        RouteId(1),
        "r",
        vec![
            Point::new(0.0, 0.0),
            Point::new(60.0, 40.0),
            Point::new(120.0, 0.0),
        ],
    )
    .unwrap()
}

fn mover_plane(m: &Mover, route_len: f64) -> OPlane {
    OPlane::new(
        RouteId(1),
        m.start_arc.min(route_len),
        if m.backward {
            Direction::Backward
        } else {
            Direction::Forward
        },
        m.speed.min(m.max_speed),
        m.max_speed,
        5.0,
        if m.immediate {
            BoundKind::Immediate
        } else {
            BoundKind::Delayed
        },
        m.t0,
        m.t0 + TRIP_MINUTES,
    )
    .unwrap()
}

fn fleet(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Mover>> {
    proptest::collection::vec(
        (
            0.0f64..140.0,
            0.0f64..10.0,
            0.05f64..2.0,
            0.0f64..1.5,
            any::<bool>(),
            any::<bool>(),
        ),
        n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(
                |(start_arc, t0, speed, headroom, backward, immediate)| Mover {
                    start_arc,
                    t0,
                    speed,
                    max_speed: speed + headroom,
                    backward,
                    immediate,
                },
            )
            .collect()
    })
}

fn rect_region() -> impl Strategy<Value = (QueryRegion, f64, f64)> {
    (
        -10.0f64..110.0,
        -10.0f64..50.0,
        2.0f64..60.0,
        2.0f64..40.0,
        0.0f64..40.0,
        0.0f64..15.0,
    )
        .prop_map(|(x0, y0, w, h, t0, dt)| {
            let g = Polygon::rectangle(&Rect::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h)))
                .unwrap();
            (QueryRegion::during(g, t0, t0 + dt), t0, t0 + dt)
        })
}

fn sorted_candidates(
    idx: &MovingObjectIndex<u64>,
    q: &QueryRegion,
    net: &RouteNetwork,
) -> Vec<u64> {
    let mut c = idx.candidates(q, net);
    c.sort_unstable();
    c
}

fn brute_force(entries: &[(Aabb3, u64)], q: &Aabb3) -> Vec<u64> {
    let mut v: Vec<u64> = entries
        .iter()
        .filter(|(b, _)| b.intersects(q))
        .map(|(_, id)| *id)
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental inserts answer exactly like the brute-force oracle.
    #[test]
    fn rtree_matches_oracle(entries in boxes(1..300), q in query_box()) {
        let mut tree = RStarTree::new();
        for (b, id) in &entries {
            tree.insert(*b, *id);
        }
        prop_assert_eq!(tree.len(), entries.len());
        let mut got = tree.query_intersecting(&q);
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&entries, &q));
    }

    /// Bulk loading answers exactly like incremental insertion.
    #[test]
    fn bulk_load_matches_oracle(entries in boxes(1..300), q in query_box()) {
        let tree = RStarTree::bulk_load(entries.clone());
        prop_assert_eq!(tree.len(), entries.len());
        let mut got = tree.query_intersecting(&q);
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&entries, &q));
    }

    /// After deleting a random subset, queries see exactly the survivors.
    #[test]
    fn remove_keeps_oracle_in_sync(entries in boxes(2..200),
                                   removal_mask in proptest::collection::vec(any::<bool>(), 2..200),
                                   q in query_box()) {
        let mut tree = RStarTree::new();
        for (b, id) in &entries {
            tree.insert(*b, *id);
        }
        let mut survivors = Vec::new();
        for (i, (b, id)) in entries.iter().enumerate() {
            if removal_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(tree.remove(b, id), "entry {id} must be removable");
            } else {
                survivors.push((*b, *id));
            }
        }
        prop_assert_eq!(tree.len(), survivors.len());
        let mut got = tree.query_intersecting(&q);
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&survivors, &q));
    }

    /// O-plane slab boxes cover the exact uncertainty interval at every
    /// sampled time, for random speeds, costs, and directions.
    #[test]
    fn oplane_boxes_cover(speed in 0.0f64..2.0,
                          headroom in 0.0f64..1.0,
                          c in 0.5f64..20.0,
                          start_arc in 0.0f64..100.0,
                          backward in any::<bool>(),
                          immediate in any::<bool>(),
                          slab in 0.5f64..10.0) {
        let route = Route::from_vertices(
            RouteId(1),
            "r",
            vec![Point::new(0.0, 0.0), Point::new(60.0, 40.0), Point::new(120.0, 0.0)],
        ).unwrap();
        let plane = OPlane::new(
            RouteId(1),
            start_arc.min(route.length()),
            if backward { Direction::Backward } else { Direction::Forward },
            speed,
            speed + headroom,
            c,
            if immediate { BoundKind::Immediate } else { BoundKind::Delayed },
            0.0,
            30.0,
        ).unwrap();
        let bxs = plane.to_boxes(&route, slab).unwrap();
        prop_assert!(!bxs.is_empty());
        let mut t = 0.0;
        while t <= 30.0 {
            let (lo, hi) = plane.arc_interval(route.length(), t);
            for frac in [0.0, 0.5, 1.0] {
                let arc = lo + frac * (hi - lo);
                let p = route.point_at(arc);
                prop_assert!(
                    bxs.iter().any(|b| b.contains_point([p.x, p.y, t])),
                    "uncovered arc {arc} at t={t}"
                );
            }
            t += 1.37;
        }
    }

    /// A tree clone is a frozen tree. Through a random stream of inserts,
    /// removals (some of absent entries) and box updates (some in place,
    /// some not), clones taken at random points keep answering exactly
    /// like brute force over the entries they held when taken, whatever
    /// the live tree goes on to do and after it is dropped.
    #[test]
    fn tree_clones_taken_mid_stream_stay_frozen(
        entries in boxes(1..120),
        steps in proptest::collection::vec((0usize..4, 0usize..120, -6.0f64..6.0), 1..160),
        q in query_box(),
    ) {
        let mut tree = RStarTree::new();
        // The model: each value's current box, `None` once removed.
        let mut model: Vec<Option<Aabb3>> = Vec::new();
        for (b, id) in &entries {
            tree.insert(*b, *id);
            model.push(Some(*b));
        }
        let survivors = |model: &[Option<Aabb3>]| -> Vec<(Aabb3, u64)> {
            model.iter().enumerate().filter_map(|(i, b)| b.map(|b| (b, i as u64))).collect()
        };
        let mut pinned = vec![(tree.clone(), survivors(&model))];
        for &(kind, pick, shift) in &steps {
            let i = pick % model.len();
            match (kind, model[i]) {
                (0, _) => {
                    let clone = tree.clone();
                    let (shared, total) = tree.shared_nodes_with(&clone);
                    prop_assert_eq!(shared, total, "a fresh clone shares every node");
                    pinned.push((clone, survivors(&model)));
                }
                (1, Some(b)) => {
                    prop_assert!(tree.remove(&b, &(i as u64)));
                    model[i] = None;
                }
                (1, None) => {
                    // Absent: nothing happens, and nothing is copied.
                    let before = tree.shared_nodes_with(&pinned.last().unwrap().0);
                    let gone = entries[i].0;
                    prop_assert!(!tree.remove(&gone, &(i as u64)));
                    prop_assert!(!tree.update(&gone, &(i as u64), gone, i as u64));
                    prop_assert_eq!(tree.shared_nodes_with(&pinned.last().unwrap().0), before);
                }
                (_, Some(b)) => {
                    // A small shift usually fits the leaf's box (in
                    // place); a large one forces remove + insert.
                    let d = if kind == 2 { shift * 0.05 } else { shift * 4.0 };
                    let moved = Aabb3::new(
                        [b.min[0] + d, b.min[1] + d, b.min[2]],
                        [b.max[0] + d, b.max[1] + d, b.max[2]],
                    );
                    prop_assert!(tree.update(&b, &(i as u64), moved, i as u64));
                    model[i] = Some(moved);
                }
                (_, None) => {
                    tree.insert(entries[i].0, i as u64);
                    model[i] = Some(entries[i].0);
                }
            }
            prop_assert_eq!(tree.len(), model.iter().flatten().count());
        }
        let check = |tree: &RStarTree<u64>, held: &[(Aabb3, u64)]| {
            let mut got = tree.query_intersecting(&q);
            got.sort_unstable();
            (tree.len() == held.len()).then_some(got) == Some(brute_force(held, &q))
        };
        prop_assert!(check(&tree, &survivors(&model)), "live tree");
        for (i, (clone, held)) in pinned.iter().enumerate() {
            prop_assert!(check(clone, held), "clone {} before the live tree dropped", i);
        }
        drop(tree);
        for (i, (clone, held)) in pinned.iter().enumerate() {
            prop_assert!(check(clone, held), "clone {} after the live tree dropped", i);
        }
    }

    /// The index answers every query like the reference decomposition —
    /// an object is a candidate iff some box of its plane's `to_boxes`
    /// intersects the query box — through upserts, max-speed revisions
    /// and removals, and so does every clone taken along the way: a
    /// clone *shares* the live index's nodes, buckets and entries when
    /// taken, yet answers from the planes installed at that instant
    /// however the live index is written or dropped afterwards.
    #[test]
    fn upserts_removals_and_clones_match_the_box_oracle(
        movers in fleet(1..40),
        (q, _, _) in rect_region(),
        slab in 1.0f64..8.0,
        revise_mask in proptest::collection::vec(any::<bool>(), 40),
        new_speeds in proptest::collection::vec(0.05f64..3.5, 40),
        remove_mask in proptest::collection::vec(any::<bool>(), 40),
        clone_mask in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let route = bent_route();
        let net = RouteNetwork::from_routes([route.clone()]).unwrap();
        let len = route.length();
        let qbox = q.aabb();
        // The oracle: the planes currently installed, by key.
        let oracle = |planes: &[Option<OPlane>]| -> Vec<u64> {
            planes
                .iter()
                .enumerate()
                .filter(|(_, plane)| {
                    plane.as_ref().is_some_and(|p| {
                        p.to_boxes(&route, slab).unwrap().iter().any(|b| b.intersects(&qbox))
                    })
                })
                .map(|(i, _)| i as u64)
                .collect()
        };
        let mut planes: Vec<Option<OPlane>> =
            movers.iter().map(|m| Some(mover_plane(m, len))).collect();
        let mut idx: MovingObjectIndex<u64> = MovingObjectIndex::new(slab);
        for (i, plane) in planes.iter().enumerate() {
            idx.upsert(i as u64, plane.clone().unwrap(), &route).unwrap();
        }
        prop_assert_eq!(idx.len(), movers.len());
        prop_assert_eq!(idx.tree_stats().0, movers.len());
        prop_assert_eq!(sorted_candidates(&idx, &q, &net), oracle(&planes));

        // Publish points: a clone beside the planes it must keep
        // answering from. One before any further write, then wherever
        // the mask says.
        let mut pinned = vec![(idx.clone(), planes.clone())];
        let (shared, total) = idx.shared_with(&pinned[0].0);
        prop_assert_eq!(shared, total, "a fresh clone shares every node and bucket");

        // Max-speed revisions: re-upsert with a new top speed.
        for (i, m) in movers.iter().enumerate() {
            if clone_mask[i] {
                pinned.push((idx.clone(), planes.clone()));
            }
            if !revise_mask[i] {
                continue;
            }
            let mut revised = m.clone();
            revised.max_speed = new_speeds[i];
            revised.speed = m.speed.min(revised.max_speed);
            planes[i] = Some(mover_plane(&revised, len));
            idx.upsert(i as u64, mover_plane(&revised, len), &route).unwrap();
        }
        prop_assert_eq!(idx.tree_stats().0, movers.len());
        prop_assert_eq!(sorted_candidates(&idx, &q, &net), oracle(&planes));

        // Removals of a random subset, each found by the box of the plane
        // its payload holds.
        let on_route = |plane: &OPlane| Ok::<_, IndexError>(Some((plane.clone(), &route)));
        for i in 0..movers.len() {
            if clone_mask[40 + i] {
                pinned.push((idx.clone(), planes.clone()));
            }
            if !remove_mask[i] {
                continue;
            }
            planes[i] = None;
            prop_assert!(idx.remove(&(i as u64), on_route).unwrap().is_some());
            prop_assert!(idx.remove(&(i as u64), on_route).unwrap().is_none());
        }
        let live = planes.iter().flatten().count();
        prop_assert_eq!((idx.len(), idx.tree_stats().0), (live, live));
        prop_assert_eq!(sorted_candidates(&idx, &q, &net), oracle(&planes));

        // Isolation: the live index's writes replaced its own paths, they
        // did not write through the shared ones — before and after the
        // live index is gone.
        let frozen = |pinned: &[(MovingObjectIndex<u64>, Vec<Option<OPlane>>)]| {
            pinned.iter().all(|(clone, held)| {
                let n = held.iter().flatten().count();
                (clone.len(), clone.tree_stats().0) == (n, n)
                    && sorted_candidates(clone, &q, &net) == oracle(held)
            })
        };
        prop_assert!(frozen(&pinned), "a clone saw a later write");
        drop(idx);
        prop_assert!(frozen(&pinned), "a clone lost something with the live index");
    }

    /// The filter is sound whatever the slab duration: every object whose
    /// true uncertainty region enters the query box is reported as a
    /// candidate.
    #[test]
    fn filter_is_sound_for_any_slab_duration(
        movers in fleet(1..30),
        (q, qt0, qt1) in rect_region(),
        slab in 0.2f64..50.0,
    ) {
        let route = bent_route();
        let net = RouteNetwork::from_routes([route.clone()]).unwrap();
        let len = route.length();
        let mut idx: MovingObjectIndex<u64> = MovingObjectIndex::new(slab);
        for (i, m) in movers.iter().enumerate() {
            idx.upsert(i as u64, mover_plane(m, len), &route).unwrap();
        }

        let cands = sorted_candidates(&idx, &q, &net);
        let qbox = q.aabb();
        for (i, m) in movers.iter().enumerate() {
            if cands.binary_search(&(i as u64)).is_ok() {
                continue;
            }
            // Not a candidate: no sampled true position may fall in the box.
            let plane = mover_plane(m, len);
            let mut t = qt0.max(m.t0);
            let t_end = qt1.min(m.t0 + TRIP_MINUTES);
            while t <= t_end {
                let (lo, hi) = plane.arc_interval(len, t);
                for frac in [0.0, 0.5, 1.0] {
                    let p = route.point_at(lo + frac * (hi - lo));
                    prop_assert!(
                        !qbox.contains_point([p.x, p.y, t]),
                        "object {i} missed by the index but inside query at t={t}"
                    );
                }
                t += 0.73;
            }
        }
    }

    /// The index files the plane, not its decomposition: what it reads
    /// from the plane on demand must be what the decomposition holds.
    /// `union_box` is the fold of `to_boxes`'s boxes, and
    /// `any_slab_intersects(q)` is `any(|b| b.intersects(q))` over them —
    /// for both bound families and directions on a multi-vertex route,
    /// and query boxes that are instants, intervals, wholly before
    /// `start_time`, wholly past `end_time`, and exactly on a slab
    /// boundary `start + i·slab`.
    #[test]
    fn on_demand_slabs_equal_the_decomposition(
        m in fleet(1..2),
        slab in 0.3f64..9.0,
        x0 in -10.0f64..110.0,
        y0 in -10.0f64..45.0,
        w in 0.5f64..80.0,
        h in 0.5f64..50.0,
        at in -15.0f64..70.0,
        dt in prop_oneof![Just(0.0), 0.0f64..25.0],
        boundary in 0usize..140,
    ) {
        let route = bent_route();
        let plane = mover_plane(&m[0], route.length());
        let boxes = plane.to_boxes(&route, slab).unwrap();
        let union = boxes.iter().fold(Aabb3::empty(), |a, b| a.union(b));
        prop_assert_eq!(plane.union_box(&route, slab).unwrap(), union);

        // A slab of the decomposition, and the boundary `start + i·slab`
        // it shares with its neighbour.
        let i = boundary % boxes.len();
        let on_boundary = plane.start_time + i as f64 * slab;
        let (slab_t0, slab_t1) = boxes[i].time_span();
        let spans = [
            (at, at + dt),
            (on_boundary, on_boundary),
            (on_boundary, on_boundary + dt),
            (on_boundary - dt, on_boundary),
            (slab_t0, slab_t0),
            (slab_t1, slab_t1),
            (slab_t0, slab_t1),
            (plane.start_time - 1.0 - dt, plane.start_time - 1.0),
            (plane.start_time - dt, plane.start_time),
            (plane.end_time, plane.end_time + dt),
            (plane.end_time + 1.0, plane.end_time + 1.0 + dt),
            (f64::NEG_INFINITY, f64::INFINITY),
        ];
        // The drawn rectangle; the whole map, so the time axis alone
        // decides; and the two ends of slab `i`'s own box, which its
        // neighbours in time need not reach — a filter that picks the
        // wrong side of a boundary answers differently there.
        let rects = [
            ([x0, y0], [x0 + w, y0 + h]),
            ([-1e3, -1e3], [1e3, 1e3]),
            ([boxes[i].min[0], boxes[i].min[1]], [boxes[i].min[0], boxes[i].min[1]]),
            ([boxes[i].max[0], boxes[i].max[1]], [boxes[i].max[0], boxes[i].max[1]]),
        ];
        for (t0, t1) in spans {
            for (lo, hi) in rects {
                let q = Aabb3::new([lo[0], lo[1], t0], [hi[0], hi[1], t1]);
                prop_assert_eq!(
                    plane.any_slab_intersects(&route, slab, &q).unwrap(),
                    boxes.iter().any(|b| b.intersects(&q)),
                    "query {:?} against {} boxes", q, boxes.len()
                );
            }
        }
    }
}
