//! Cross-index agreement: every index structure in the workspace must
//! produce the same *exact* join result when combined with refinement, and
//! the filters must relate by containment (ACT hits ⊆ R-tree candidates
//! modulo the ε fringe, grid true hits ⊆ polygon, …).

use act_core::supercover::build_super_covering;
use act_core::{cover_polygon, ActIndex, CoveringParams, Refiner, SortedCellIndex};
use datagen::PointGen;
use geom::Coord;
use grid::UniformGrid;

fn refine(refs: Vec<(u32, bool)>, refiner: &Refiner, p: Coord) -> Vec<u32> {
    let mut out: Vec<u32> = refs
        .into_iter()
        .filter(|&(id, interior)| interior || refiner.contains(id, p))
        .map(|(id, _)| id)
        .collect();
    out.sort_unstable();
    out
}

fn exact_via_act(index: &ActIndex, refiner: &Refiner, p: Coord, out: &mut Vec<u32>) {
    *out = refine(index.as_view().lookup_refs(p), refiner, p);
}

#[test]
fn all_indexes_agree_on_exact_results() {
    let ds = datagen::blocks_scaled(12, 10, 9);
    let _n = ds.polygons.len();
    let refiner = Refiner::new(&ds.polygons);

    // ACT.
    let act = ActIndex::build(&ds.polygons, 15.0).unwrap();

    // ACT through a snapshot round trip, in both load modes: the
    // persisted index must agree with every baseline exactly like the
    // freshly built one.
    let mut snap = Vec::new();
    act.save_snapshot(&mut snap).unwrap();
    let act_loaded = ActIndex::load_snapshot(&mut snap.as_slice()).unwrap();
    let act_mapped = act_core::MappedSnapshot::read_from(&mut snap.as_slice()).unwrap();
    let act_view = act_mapped.view();

    // Sorted-array index over the same covering.
    let params = CoveringParams::new(15.0);
    let coverings: Vec<_> = ds
        .polygons
        .iter()
        .map(|p| cover_polygon(p, &params).unwrap())
        .collect();
    let sorted = SortedCellIndex::build(&build_super_covering(&coverings));

    // Flat grid.
    let flat = UniformGrid::build(&ds.polygons, ds.bbox, 512, 512);

    // R-tree over MBRs.
    let mut tree = rtree::RTree::new(8);
    for (i, p) in ds.polygons.iter().enumerate() {
        tree.insert(*p.bbox(), i as u32);
    }

    let pts = PointGen::nyc_taxi_like(ds.bbox, 3).take_vec(5_000);
    for &p in &pts {
        // Ground truth by refined R-tree (classical filter-and-refine).
        let mut truth: Vec<u32> = tree
            .query_point(p)
            .into_iter()
            .filter(|&id| refiner.contains(id, p))
            .collect();
        truth.sort_unstable();

        // ACT exact.
        let mut via_act = Vec::new();
        exact_via_act(&act, &refiner, p, &mut via_act);
        assert_eq!(via_act, truth, "ACT+refine disagrees at {p}");

        // Snapshot-loaded ACT (owned) exact.
        let mut via_loaded = Vec::new();
        exact_via_act(&act_loaded, &refiner, p, &mut via_loaded);
        assert_eq!(via_loaded, truth, "snapshot-loaded ACT disagrees at {p}");

        // Snapshot-loaded ACT (zero-copy view) exact.
        let via_view = refine(act_view.lookup_refs(p), &refiner, p);
        assert_eq!(via_view, truth, "snapshot view disagrees at {p}");

        // Sorted index exact.
        let mut via_sorted: Vec<u32> =
            act_core::resolve_probe(sorted.lookup(act_core::coord_to_cell(p)), sorted.table())
                .filter(|&(id, interior)| interior || refiner.contains(id, p))
                .map(|(id, _)| id)
                .collect();
        via_sorted.sort_unstable();
        assert_eq!(via_sorted, truth, "sorted+refine disagrees at {p}");

        // Grid exact.
        let mut via_grid: Vec<u32> = flat
            .query(p)
            .into_iter()
            .filter(|&(id, interior)| interior || refiner.contains(id, p))
            .map(|(id, _)| id)
            .collect();
        via_grid.sort_unstable();
        assert_eq!(via_grid, truth, "grid+refine disagrees at {p}");
    }
}

#[test]
fn act_filter_is_no_looser_than_epsilon() {
    // Every ACT match (even candidates) is within ε; R-tree candidates can
    // be arbitrarily far inside the MBR. Quantify both on one workload.
    let ds = datagen::neighborhoods(5);
    let act = ActIndex::build(&ds.polygons, 15.0).unwrap();
    let mut tree = rtree::RTree::new(8);
    for (i, p) in ds.polygons.iter().enumerate() {
        tree.insert(*p.bbox(), i as u32);
    }
    let pts = PointGen::nyc_taxi_like(ds.bbox, 11).take_vec(2_000);
    let mut act_worst: f64 = 0.0;
    let mut rtree_worst: f64 = 0.0;
    for &p in &pts {
        for (id, _) in act.as_view().lookup_refs(p) {
            act_worst = act_worst.max(ds.polygons[id as usize].distance_meters(p));
        }
        for id in tree.query_point(p) {
            rtree_worst = rtree_worst.max(ds.polygons[id as usize].distance_meters(p));
        }
    }
    assert!(act_worst <= 15.0, "ACT fringe {act_worst} m exceeds ε");
    assert!(
        rtree_worst > 100.0,
        "expected MBR candidates far from their polygons, worst {rtree_worst} m"
    );
}

#[test]
fn true_hit_rate_improves_with_interior_cells() {
    // The ACT filter classifies the vast majority of matches as true hits
    // (paper's claim: "covering the majority of the interior area").
    let ds = datagen::neighborhoods(5);
    let act = ActIndex::build(&ds.polygons, 15.0).unwrap();
    let pts = PointGen::nyc_taxi_like(ds.bbox, 11).take_vec(20_000);
    let mut cells = Vec::with_capacity(pts.len());
    for &p in &pts {
        cells.push(act_core::coord_to_cell(p));
    }
    let mut counts = vec![0u64; ds.polygons.len()];
    let stats = act_core::join_approx_cells(&act, &cells, &mut counts);
    let hit_total = stats.true_hits + stats.candidate_hits;
    assert!(
        stats.true_hits as f64 > 0.95 * hit_total as f64,
        "true hits {} of {hit_total}",
        stats.true_hits
    );
}

/// A deterministic edit script mutates a live ACT index — inserts,
/// upserts, removals, compactions — while grid and R-tree oracles are
/// rebuilt from the evolving polygon set at every checkpoint. The claim
/// under test is the dynamic-geofence contract end to end: incremental
/// mutation ≡ fresh rebuild ≡ oracle.
#[test]
fn edit_scripts_agree_with_grid_and_rtree_oracles() {
    use act_core::covering::cover_uv_polygon;
    use act_core::supercover::build_from_pairs;
    use act_core::uvpoly::UvPolygon;
    use act_core::PolygonRef;
    use geom::{Polygon, Ring};
    use std::collections::BTreeMap;

    // splitmix64, fixed seed: the script is part of the test.
    let mut state = 0x00DD_5EED_u64;
    let mut rng = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let precision = 15.0;
    let ds = datagen::blocks_scaled(6, 5, 7);
    let mut act = ActIndex::build(&ds.polygons, precision).unwrap();
    let mut live: BTreeMap<u32, Polygon> = ds
        .polygons
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, p)| (i as u32, p))
        .collect();
    let mut next_id = ds.polygons.len() as u32;

    let (lo, hi) = (ds.bbox.min, ds.bbox.max);
    let synth_square = |rng: &mut dyn FnMut() -> u64| {
        let fx = (rng() % 1_000) as f64 / 1_000.0;
        let fy = (rng() % 1_000) as f64 / 1_000.0;
        let cx = lo.x + (hi.x - lo.x) * fx;
        let cy = lo.y + (hi.y - lo.y) * fy;
        let h = 0.0004 + (rng() % 100) as f64 * 2e-5; // 40–250 m across
        Polygon::new(
            Ring::new(vec![
                Coord::new(cx - h, cy - h),
                Coord::new(cx + h, cy - h),
                Coord::new(cx + h, cy + h),
                Coord::new(cx - h, cy + h),
            ]),
            vec![],
        )
    };

    // Fresh rebuild of the live set under its *real* (sparse) ids.
    let rebuild = |live: &BTreeMap<u32, Polygon>| -> ActIndex {
        let params = act_core::CoveringParams::new(precision);
        let mut pairs = Vec::new();
        for (&id, poly) in live {
            let uv = UvPolygon::from_polygon(poly).unwrap();
            for &(cell, interior) in &cover_uv_polygon(&uv, &params).cells {
                pairs.push((cell, PolygonRef { id, interior }));
            }
        }
        ActIndex::from_supercover(build_from_pairs(pairs), params)
    };

    let exact_ids = |live: &BTreeMap<u32, Polygon>, p: Coord| -> Vec<u32> {
        let mut ids: Vec<u32> = live
            .iter()
            .filter(|(_, poly)| poly.contains(p))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    };
    // Filter refs → exact ids via direct point-in-polygon refinement.
    let refine = |live: &BTreeMap<u32, Polygon>, refs: Vec<(u32, bool)>, p: Coord| -> Vec<u32> {
        let mut ids: Vec<u32> = refs
            .into_iter()
            .filter(|&(id, interior)| interior || live[&id].contains(p))
            .map(|(id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    };

    for step in 0..40u32 {
        match rng() % 6 {
            0 | 1 => {
                let poly = synth_square(&mut rng);
                act.insert_polygon(next_id, &poly).unwrap();
                live.insert(next_id, poly);
                next_id += 1;
            }
            2 => {
                // Upsert: replace an existing polygon's shape in place.
                if let Some(&id) = live.keys().nth(rng() as usize % live.len()) {
                    let poly = synth_square(&mut rng);
                    act.insert_polygon(id, &poly).unwrap();
                    live.insert(id, poly);
                }
            }
            3 | 4 => {
                if let Some(&id) = live.keys().nth(rng() as usize % live.len()) {
                    assert!(act.remove_polygon(id), "live id {id} must be present");
                    live.remove(&id);
                }
            }
            _ => act.compact(),
        }

        // Checkpoint every 8 steps (and at the end): the live index must
        // agree with a fresh rebuild and with both oracles everywhere.
        if step % 8 != 7 && step != 39 {
            continue;
        }
        let rebuilt = rebuild(&live);
        let dense: Vec<Polygon> = live.values().cloned().collect();
        let dense_ids: Vec<u32> = live.keys().copied().collect();
        let flat = UniformGrid::build(&dense, ds.bbox, 256, 256);
        let mut tree = rtree::RTree::new(8);
        for (&id, poly) in &live {
            tree.insert(*poly.bbox(), id);
        }

        // Probe mesh + each live polygon's center (hits matter most).
        let mut pts = PointGen::nyc_taxi_like(ds.bbox, step as u64).take_vec(500);
        for poly in live.values() {
            let b = poly.bbox();
            pts.push(Coord::new(
                (b.min.x + b.max.x) / 2.0,
                (b.min.y + b.max.y) / 2.0,
            ));
        }
        for &p in &pts {
            let truth = exact_ids(&live, p);
            let via_live = refine(&live, act.as_view().lookup_refs(p), p);
            assert_eq!(via_live, truth, "step {step}: live ACT diverged at {p}");
            let via_rebuilt = refine(&live, rebuilt.as_view().lookup_refs(p), p);
            assert_eq!(via_rebuilt, truth, "step {step}: rebuild diverged at {p}");
            let mut via_grid: Vec<u32> = flat
                .query(p)
                .into_iter()
                .filter(|&(j, interior)| interior || dense[j as usize].contains(p))
                .map(|(j, _)| dense_ids[j as usize])
                .collect();
            via_grid.sort_unstable();
            assert_eq!(via_grid, truth, "step {step}: grid oracle diverged at {p}");
            let mut via_tree: Vec<u32> = tree
                .query_point(p)
                .into_iter()
                .filter(|&id| live[&id].contains(p))
                .collect();
            via_tree.sort_unstable();
            assert_eq!(
                via_tree, truth,
                "step {step}: R-tree oracle diverged at {p}"
            );
        }
    }
}
