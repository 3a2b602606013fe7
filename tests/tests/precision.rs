//! The headline claim, end to end: the approximate join never reports a
//! pair farther than ε apart and never misses a containing polygon —
//! across dataset tiers, precisions, and the adaptive/budgeted variants.

use act_core::{build_with_budget, ActIndex, AdaptiveIndex, AdaptiveParams};
use datagen::PointGen;

fn assert_guarantee(ds: &datagen::Dataset, index: &ActIndex, eps: f64, n_probes: usize, seed: u64) {
    let gen = PointGen::nyc_taxi_like(ds.bbox, seed);
    let mut matches = 0u64;
    for p in gen.iter_range(0, n_probes as u64) {
        let refs = index.as_view().lookup_refs(p);
        // No false negatives: a containing polygon is always reported.
        // (Only check polygons whose bbox contains p, for speed.)
        for (i, poly) in ds.polygons.iter().enumerate() {
            if poly.bbox().contains(p) && poly.contains(p) {
                assert!(
                    refs.iter().any(|&(id, _)| id as usize == i),
                    "{}: false negative for polygon {i} at {p}",
                    ds.name
                );
            }
        }
        // Bounded false positives.
        for (id, interior) in refs {
            matches += 1;
            let d = ds.polygons[id as usize].distance_meters(p);
            if interior {
                assert_eq!(d, 0.0, "{}: non-exact true hit at {p}", ds.name);
            } else {
                assert!(
                    d <= eps * 1.0001,
                    "{}: candidate at {d} m exceeds ε = {eps} at {p}",
                    ds.name
                );
            }
        }
    }
    assert!(matches > 0, "{}: no matches at all?", ds.name);
}

#[test]
fn guarantee_boroughs_60m() {
    let ds = datagen::boroughs(42);
    let index = ActIndex::build(&ds.polygons, 60.0).unwrap();
    assert_guarantee(&ds, &index, 60.0, 2_000, 1);
}

#[test]
fn guarantee_neighborhoods_15m() {
    let ds = datagen::neighborhoods(42);
    let index = ActIndex::build(&ds.polygons, 15.0).unwrap();
    assert_guarantee(&ds, &index, 15.0, 2_000, 2);
}

#[test]
fn guarantee_blocks_4m() {
    let ds = datagen::blocks_scaled(20, 15, 42);
    let index = ActIndex::build(&ds.polygons, 4.0).unwrap();
    assert_guarantee(&ds, &index, 4.0, 2_000, 3);
}

#[test]
fn guarantee_with_holes() {
    let ds = datagen::holed(5, 5, 7);
    let index = ActIndex::build(&ds.polygons, 15.0).unwrap();
    assert_guarantee(&ds, &index, 15.0, 2_000, 4);
}

#[test]
fn budgeted_build_guarantees_achieved_precision() {
    let ds = datagen::blocks_scaled(10, 8, 9);
    // Deliberately too small for 4 m.
    let b = build_with_budget(&ds.polygons, 4.0, 3 << 20).unwrap();
    assert!(b.index.memory_bytes() <= 3 << 20);
    // Whatever precision was achieved is still guaranteed.
    assert_guarantee(&ds, &b.index, b.achieved_precision_m, 2_000, 5);
    if !b.guaranteed {
        assert!(b.achieved_precision_m > 4.0);
    }
}

#[test]
fn adaptive_index_keeps_the_target_guarantee_in_refined_regions() {
    let ds = datagen::blocks_scaled(8, 6, 11);
    let params = AdaptiveParams {
        target_precision_m: 4.0,
        base_precision_m: 60.0,
        budget_bytes: 512 << 20,
        max_refined_cells: 2_000,
    };
    let mut adaptive = AdaptiveIndex::build(&ds.polygons, params).unwrap();
    // Sample = the actual workload.
    let gen = PointGen::nyc_taxi_like(ds.bbox, 13);
    let sample: Vec<_> = gen
        .iter_range(0, 20_000)
        .map(act_core::coord_to_cell)
        .collect();
    let report = adaptive.adapt(&sample);
    assert!(report.candidate_rate_after <= report.candidate_rate_before);

    // The base guarantee (60 m) holds everywhere even after adaptation.
    assert_guarantee(&ds, adaptive.index(), 60.0, 2_000, 14);
}

#[test]
fn epsilon_is_tight_in_practice() {
    // Some candidate should actually sit between ~ε/4 and ε from the
    // polygon — the bound is used, not vacuous.
    let ds = datagen::neighborhoods(42);
    let eps = 60.0;
    let index = ActIndex::build(&ds.polygons, eps).unwrap();
    let gen = PointGen::nyc_taxi_like(ds.bbox, 21);
    let mut worst: f64 = 0.0;
    for p in gen.iter_range(0, 50_000) {
        for (id, interior) in index.as_view().lookup_refs(p) {
            if !interior {
                let poly = &ds.polygons[id as usize];
                if !poly.contains(p) {
                    worst = worst.max(poly.distance_meters(p));
                }
            }
        }
    }
    assert!(worst > eps / 4.0, "worst observed fringe only {worst} m");
    assert!(worst <= eps * 1.0001);
}
