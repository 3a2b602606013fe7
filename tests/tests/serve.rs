//! End-to-end serving tests: the golden fixture through the mmap path,
//! the act-serve TCP round trip against the in-process joins, and a
//! zero-dropped-requests snapshot hot-swap.

use act_core::{ActIndex, MappedSnapshot, Probe, Refiner};
use act_serve::{Client, ServeConfig, Server};
use datagen::PointGen;
use geom::{Coord, Polygon, Ring};
use std::time::{Duration, Instant};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/snapshot_golden_v2.snap")
}

fn square(cx: f64, cy: f64, half: f64) -> Polygon {
    Polygon::new(
        Ring::new(vec![
            Coord::new(cx - half, cy - half),
            Coord::new(cx + half, cy - half),
            Coord::new(cx + half, cy + half),
            Coord::new(cx - half, cy + half),
        ]),
        vec![],
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("act-serve-it-{}-{name}.snap", std::process::id()));
    p
}

fn save_snapshot_to(path: &std::path::Path, idx: &ActIndex) {
    let mut bytes = Vec::new();
    idx.save_snapshot(&mut bytes).unwrap();
    std::fs::write(path, bytes).unwrap();
}

/// A probe grid over the golden fixture's dataset (the seeded 3×2
/// lattice near NYC), dense enough to hit interiors, boundaries, and
/// misses.
fn fixture_probe_grid() -> Vec<Coord> {
    let ds = datagen::blocks_scaled(3, 2, 11);
    let (lo, hi) = (ds.bbox.min, ds.bbox.max);
    let mut pts = Vec::new();
    for i in 0..60 {
        for j in 0..40 {
            pts.push(Coord::new(
                lo.x - 0.01 + (hi.x - lo.x + 0.02) * i as f64 / 59.0,
                lo.y - 0.01 + (hi.y - lo.y + 0.02) * j as f64 / 39.0,
            ));
        }
    }
    pts
}

#[test]
fn golden_fixture_mmap_view_equals_heap_load() {
    let path = fixture_path();
    let mapped = MappedSnapshot::open(&path).expect("fixture must map");
    assert_eq!(
        cfg!(unix),
        mapped.is_mmap(),
        "unix targets must really mmap"
    );
    let heap = ActIndex::load_snapshot(&mut std::fs::read(&path).unwrap().as_slice())
        .expect("fixture must heap-load");

    // The mapped bytes are the file's bytes.
    assert_eq!(mapped.bytes(), std::fs::read(&path).unwrap().as_slice());

    // Scalar + batch probe equality across the grid.
    let pts = fixture_probe_grid();
    for &c in &pts {
        assert_eq!(
            mapped.view().probe_coord(c),
            heap.as_view().probe_coord(c),
            "at {c}"
        );
        assert_eq!(
            mapped.view().lookup_refs(c),
            heap.as_view().lookup_refs(c),
            "at {c}"
        );
    }
    let cells: Vec<_> = pts.iter().map(|&c| act_core::coord_to_cell(c)).collect();
    let mut got = vec![Probe::Miss; cells.len()];
    let mut want = vec![Probe::Miss; cells.len()];
    mapped.view().probe_batch(&cells, &mut got);
    heap.as_view().probe_batch(&cells, &mut want);
    assert_eq!(got, want);

    // And the mapped snapshot deep-copies back to the identical index.
    assert!(mapped.to_owned_index().identical_to(&heap));
}

#[test]
fn golden_fixture_served_via_deliberately_unaligned_buffer() {
    let bytes = std::fs::read(fixture_path()).unwrap();
    // Place the fixture at an odd offset inside a larger buffer so the
    // slice is guaranteed misaligned, whatever the allocator did.
    let mut padded = vec![0u8; bytes.len() + 8];
    let base = padded.as_ptr() as usize;
    let off = if base.is_multiple_of(8) {
        1
    } else {
        8 - base % 8 + 1
    };
    padded[off..off + bytes.len()].copy_from_slice(&bytes);
    let shifted = &padded[off..off + bytes.len()];

    // The reader copies it into aligned storage and serves it.
    assert!(!(shifted.as_ptr() as usize).is_multiple_of(8));
    let snap = MappedSnapshot::read_from(&mut &shifted[..]).expect("reader must copy + load");
    assert!(!snap.is_mmap());

    let aligned = MappedSnapshot::open(fixture_path()).unwrap();
    let view = aligned.view();
    for &c in &fixture_probe_grid() {
        assert_eq!(snap.view().probe_coord(c), view.probe_coord(c), "at {c}");
    }
}

#[test]
fn server_roundtrip_matches_join_exact_counts() {
    let ds = datagen::blocks_scaled(4, 3, 7);
    let precision = 60.0;
    let idx = ActIndex::build(&ds.polygons, precision).unwrap();
    let path = temp_path("roundtrip");
    save_snapshot_to(&path, &idx);

    let server = Server::spawn(
        &path,
        ServeConfig {
            refiner: Some(Refiner::new(&ds.polygons)),
            watch: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let points = PointGen::nyc_taxi_like(ds.bbox, 3).take_vec(20_000);
    let refiner = Refiner::new(&ds.polygons);
    let mut exact_want = vec![0u64; ds.polygons.len()];
    act_core::join_exact(&idx, &refiner, &points, &mut exact_want);
    let mut approx_want = vec![0u64; ds.polygons.len()];
    act_core::join_approx_coords(&idx, &points, &mut approx_want);

    // Per point: approx mode answers the walk's refs unfiltered, exact
    // mode keeps the interior refs and the candidates the refiner
    // confirms, each reported as a true hit.
    let view = idx.as_view();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut exact_got = vec![0u64; ds.polygons.len()];
    let mut approx_got = vec![0u64; ds.polygons.len()];
    for chunk in points.chunks(1024) {
        let exact = client.probe(chunk, true).unwrap();
        let approx = client.probe(chunk, false).unwrap();
        assert_eq!(exact.refs.len(), chunk.len());
        assert_eq!(approx.refs.len(), chunk.len());
        for ((&pt, exact), approx) in chunk.iter().zip(&exact.refs).zip(&approx.refs) {
            let refs: Vec<(u32, bool)> = view.resolve_refs(view.probe_coord(pt)).collect();
            let members: Vec<(u32, bool)> = refs
                .iter()
                .filter(|&&(id, interior)| interior || refiner.contains(id, pt))
                .map(|&(id, _)| (id, true))
                .collect();
            assert_eq!(*exact, members, "exact reply ≡ local refinement at {pt}");
            assert_eq!(*approx, refs, "approx reply ≡ unfiltered refs at {pt}");
            for &(id, _) in exact {
                exact_got[id as usize] += 1;
            }
            for &(id, _) in approx {
                approx_got[id as usize] += 1;
            }
        }
    }
    assert_eq!(exact_got, exact_want, "served exact counts ≡ join_exact");
    assert_eq!(
        approx_got, approx_want,
        "served approx counts ≡ join_approx_coords"
    );

    // The server's books: every point probed twice (exact + approx), no
    // frame shed, and every accepted frame answered or shed.
    let stats = server.stats();
    assert_eq!(stats.probes, 2 * points.len() as u64);
    assert_eq!(stats.shed, 0, "the default queue depth never sheds here");
    assert_eq!(stats.accepted, stats.answered + stats.shed);
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// The rolling-restart story: save snapshot A, serve it, drop snapshot B
/// over the path, and require (a) the watcher swaps within its poll
/// budget, (b) **zero** requests fail across the swap, (c) pre-swap
/// answers match A and post-swap answers match B.
#[test]
fn hot_swap_drops_no_requests_and_changes_answers() {
    let polys_a = vec![square(-74.05, 40.70, 0.02)];
    let polys_b = vec![square(-73.95, 40.70, 0.02)];
    let idx_a = ActIndex::build(&polys_a, 15.0).unwrap();
    let idx_b = ActIndex::build(&polys_b, 15.0).unwrap();
    let path = temp_path("hotswap");
    save_snapshot_to(&path, &idx_a);

    let server = Server::spawn(
        &path,
        ServeConfig {
            watch: Some(Duration::from_millis(15)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // One probe set that distinguishes the epochs: in A only, in B only.
    let in_a = Coord::new(-74.05, 40.70);
    let in_b = Coord::new(-73.95, 40.70);
    let frame = [in_a, in_b];
    let want_a = (
        idx_a.as_view().lookup_refs(in_a),
        idx_a.as_view().lookup_refs(in_b),
    );
    let want_b = (
        idx_b.as_view().lookup_refs(in_a),
        idx_b.as_view().lookup_refs(in_b),
    );
    assert_ne!(want_a, want_b, "the swap must be observable");

    // Continuous traffic; swap the file mid-stream (sibling + rename,
    // the atomic replacement the watcher documents).
    let reply = client.probe(&frame, false).expect("pre-swap probe");
    assert_eq!(reply.epoch, 1);
    assert_eq!((reply.refs[0].clone(), reply.refs[1].clone()), want_a);

    let sibling = temp_path("hotswap-sibling");
    save_snapshot_to(&sibling, &idx_b);
    std::fs::rename(&sibling, &path).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut requests = 0u64;
    let epoch_two = loop {
        assert!(
            Instant::now() < deadline,
            "watcher did not swap within 10 s ({requests} requests served)"
        );
        // Every request across the swap must succeed — a dropped or
        // failed request here is exactly the outage hot-swap exists to
        // prevent.
        let reply = client.probe(&frame, false).expect("probe across the swap");
        requests += 1;
        match reply.epoch {
            1 => assert_eq!((reply.refs[0].clone(), reply.refs[1].clone()), want_a),
            2 => break reply,
            e => panic!("unexpected epoch {e}"),
        }
    };
    assert_eq!(
        (epoch_two.refs[0].clone(), epoch_two.refs[1].clone()),
        want_b,
        "post-swap answers must come from snapshot B"
    );
    assert_eq!(server.epoch(), 2);
    // A fresh connection sees the new epoch too.
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_eq!(fresh.ping().unwrap().epoch, 2);

    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// The live-churn story: serve a base snapshot, drop ACTDLT01 delta
/// files beside it, and require (a) each delta is applied within the
/// poll budget *without remapping the base*, (b) **zero** requests fail
/// across every epoch flip, (c) answers change exactly as the deltas
/// dictate, and (d) the STATS counters attribute the updates to delta
/// applies.
#[test]
fn delta_hot_swap_drops_no_requests_and_changes_answers() {
    use act_core::{header_checksum, save_delta_file, DeltaLink, DeltaOp};
    use act_serve::delta_path;

    let polys_a = vec![square(-74.05, 40.70, 0.02)];
    let idx_a = ActIndex::build(&polys_a, 15.0).unwrap();
    let path = temp_path("deltaswap");
    save_snapshot_to(&path, &idx_a);
    let base_sum = header_checksum(&std::fs::read(&path).unwrap()).unwrap();

    let server = Server::spawn(
        &path,
        ServeConfig {
            watch: Some(Duration::from_millis(15)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let in_a = Coord::new(-74.05, 40.70);
    let in_b = Coord::new(-73.95, 40.70);
    let frame = [in_a, in_b];
    let reply = client.probe(&frame, false).expect("pre-delta probe");
    assert_eq!(reply.epoch, 1);
    assert!(!reply.refs[0].is_empty() && reply.refs[1].is_empty());

    // Delta 1: a new polygon appears at in_b. Write-then-rename so the
    // watcher never sees a half-written delta.
    let added = square(-73.95, 40.70, 0.02);
    let tmp = temp_path("deltaswap-d1-tmp");
    let (link, _) = save_delta_file(
        &[DeltaOp::Insert {
            id: 1,
            polygon: added,
        }],
        DeltaLink::for_base(base_sum),
        &tmp,
    )
    .unwrap();
    std::fs::rename(&tmp, delta_path(&path, 1)).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut requests = 0u64;
    let epoch_two = loop {
        assert!(
            Instant::now() < deadline,
            "watcher did not apply delta 1 within 10 s ({requests} requests served)"
        );
        // Every request across the flip must succeed: delta application
        // publishes a new epoch without taking the server down.
        let reply = client
            .probe(&frame, false)
            .expect("probe across delta apply");
        requests += 1;
        match reply.epoch {
            1 => assert!(reply.refs[1].is_empty()),
            2 => break reply,
            e => panic!("unexpected epoch {e}"),
        }
    };
    assert!(
        !epoch_two.refs[0].is_empty() && !epoch_two.refs[1].is_empty(),
        "post-delta answers must include the inserted polygon"
    );

    // Delta 2: the original polygon goes away.
    let tmp = temp_path("deltaswap-d2-tmp");
    save_delta_file(&[DeltaOp::Remove { id: 0 }], link, &tmp).unwrap();
    std::fs::rename(&tmp, delta_path(&path, 2)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let epoch_three = loop {
        assert!(Instant::now() < deadline, "watcher did not apply delta 2");
        let reply = client
            .probe(&frame, false)
            .expect("probe across delta apply");
        match reply.epoch {
            2 => {}
            3 => break reply,
            e => panic!("unexpected epoch {e}"),
        }
    };
    assert!(
        epoch_three.refs[0].is_empty() && !epoch_three.refs[1].is_empty(),
        "post-removal answers must drop polygon 0"
    );

    // The counters attribute both flips to delta applies, and a fresh
    // connection lands on the delta'd epoch.
    let mut fresh = Client::connect(server.addr()).unwrap();
    let counters = fresh.ping().unwrap().counters;
    assert_eq!(
        counters.delta_applies, 2,
        "both updates must be delta applies"
    );
    assert_eq!(counters.swaps, 2, "no full reload happened");
    assert_eq!(fresh.ping().unwrap().epoch, 3);

    server.shutdown();
    for seq in 1..=2 {
        let _ = std::fs::remove_file(delta_path(&path, seq));
    }
    std::fs::remove_file(&path).unwrap();
}
