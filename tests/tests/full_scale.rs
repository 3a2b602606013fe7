//! Full-scale (paper-sized) runs, compiled out unless the `full-scale`
//! feature is enabled — run explicitly:
//!
//! ```text
//! cargo test --release -p act-tests --features full-scale
//! ```
//!
//! Runtime budget: ~10 s wall in release on one core (census serial +
//! parallel builds dominate), a few minutes in the dev profile. CI runs
//! these only via the manual-dispatch `full-scale` workflow.
#![cfg(feature = "full-scale")]

use act_core::ActIndex;
use datagen::PointGen;

#[test]
fn census_full_60m_builds_and_probes() {
    let ds = datagen::census_blocks(42);
    assert_eq!(ds.polygons.len(), 39_184);
    let index = ActIndex::build(&ds.polygons, 60.0).unwrap();
    assert!(index.stats().indexed_cells > 1_000_000);

    let pts = PointGen::nyc_taxi_like(ds.bbox, 7).take_vec(200_000);
    let mut counts = vec![0u64; ds.polygons.len()];
    let stats = act_core::join_approx_coords(&index, &pts, &mut counts);
    assert!(stats.misses < 2_000, "misses {}", stats.misses);
    // The precision guarantee on a sample.
    for &p in pts.iter().take(2_000) {
        for (id, interior) in index.as_view().lookup_refs(p) {
            let d = ds.polygons[id as usize].distance_meters(p);
            if interior {
                assert_eq!(d, 0.0);
            } else {
                assert!(d <= 60.0 * 1.0001, "candidate at {d} m");
            }
        }
    }
}

// Paper-sized determinism check: the 4-thread build of the full census
// dataset must be byte-identical to the serial one.
#[test]
fn census_parallel_build_matches_serial() {
    let ds = datagen::census_blocks(42);
    let serial = ActIndex::build(&ds.polygons, 60.0).unwrap();
    let pool = jobs::JobPool::new(4);
    let par = ActIndex::build_parallel(&ds.polygons, 60.0, &pool).unwrap();
    assert_eq!(par.act().slots(), serial.act().slots());
    assert_eq!(par.act().roots(), serial.act().roots());
    assert_eq!(par.stats().indexed_cells, serial.stats().indexed_cells);
    assert_eq!(par.stats().pushdown_splits, serial.stats().pushdown_splits);
}

// Boroughs at 4 m: finest feasible precision on the complex tier.
#[test]
fn boroughs_full_4m_guarantee() {
    let ds = datagen::boroughs(42);
    let index = ActIndex::build(&ds.polygons, 4.0).unwrap();
    let pts = PointGen::nyc_taxi_like(ds.bbox, 9).take_vec(50_000);
    for &p in &pts {
        for (id, interior) in index.as_view().lookup_refs(p) {
            let d = ds.polygons[id as usize].distance_meters(p);
            if interior {
                assert_eq!(d, 0.0);
            } else {
                assert!(d <= 4.0 * 1.0001, "candidate at {d} m");
            }
        }
    }
}
